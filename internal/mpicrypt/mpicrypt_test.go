package mpicrypt

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/netsim"
)

func TestSealOpenRoundtrip(t *testing.T) {
	s, err := NewSealer([]byte("job-42-token"))
	if err != nil {
		t.Fatal(err)
	}
	o, _ := NewSealer([]byte("job-42-token"))
	for _, msg := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("halo"), 1000)} {
		box := s.Seal(msg)
		got, err := o.Open(box)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("roundtrip mismatch: %d vs %d bytes", len(got), len(msg))
		}
	}
}

func TestTamperDetection(t *testing.T) {
	s, _ := NewSealer([]byte("k"))
	o, _ := NewSealer([]byte("k"))
	box := s.Seal([]byte("rank data"))
	box[len(box)-1] ^= 1
	if _, err := o.Open(box); !errors.Is(err, ErrTampered) {
		t.Errorf("tampered open err = %v", err)
	}
	// Nonce tamper too.
	box2 := s.Seal([]byte("rank data"))
	box2[0] ^= 1
	if _, err := o.Open(box2); !errors.Is(err, ErrTampered) {
		t.Errorf("nonce-tampered open err = %v", err)
	}
}

func TestWrongKeyFails(t *testing.T) {
	s, _ := NewSealer([]byte("key-a"))
	o, _ := NewSealer([]byte("key-b"))
	if _, err := o.Open(s.Seal([]byte("secret"))); !errors.Is(err, ErrTampered) {
		t.Errorf("wrong-key open err = %v", err)
	}
}

func TestShortMessage(t *testing.T) {
	o, _ := NewSealer([]byte("k"))
	if _, err := o.Open([]byte{1, 2, 3}); !errors.Is(err, ErrShort) {
		t.Errorf("short open err = %v", err)
	}
}

func TestNoncesUnique(t *testing.T) {
	s, _ := NewSealer([]byte("k"))
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		box := s.Seal([]byte("m"))
		n := string(box[:8])
		if seen[n] {
			t.Fatalf("nonce reuse at %d", i)
		}
		seen[n] = true
	}
}

func TestCiphertextHidesPlaintext(t *testing.T) {
	s, _ := NewSealer([]byte("k"))
	plain := []byte("VICTIM-SECRET-PAYLOAD")
	box := s.Seal(plain)
	if bytes.Contains(box, plain[2:12]) {
		t.Errorf("ciphertext contains plaintext")
	}
}

func TestSecureConnOverNetwork(t *testing.T) {
	n := netsim.NewNetwork()
	h1, h2 := n.AddHost("a"), n.AddHost("b")
	alice := ids.Credential{UID: 1000, EGID: 1000, Groups: []ids.GID{1000}}
	l, err := h2.Listen(alice, netsim.TCP, 5000)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := h1.Dial(alice, netsim.TCP, "b", 5000)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("mpi-job-777")
	sc, err := Secure(raw, secret)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Send([]byte("halo exchange")); err != nil {
		t.Fatal(err)
	}
	// Acceptor side: a sealer derived from the same secret opens what
	// the dialer sealed.
	acc, ok := l.Accept()
	if !ok {
		t.Fatal("no conn accepted")
	}
	opener, _ := NewSealer(secret)
	box, ok := acc.Recv()
	if !ok {
		t.Fatal("nothing received")
	}
	got, err := opener.Open(box)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "halo exchange" {
		t.Errorf("recv %q", got)
	}
	// A wire sniffer sees only ciphertext.
	if err := sc.Send([]byte("CONFIDENTIAL")); err != nil {
		t.Fatal(err)
	}
	wire, _ := acc.Recv()
	if bytes.Contains(wire, []byte("CONFIDENTIAL")) {
		t.Errorf("plaintext on the wire")
	}
}

// Property: roundtrip holds for arbitrary payloads and secrets.
func TestQuickRoundtrip(t *testing.T) {
	f := func(secret, msg []byte) bool {
		s, err := NewSealer(secret)
		if err != nil {
			return false
		}
		o, _ := NewSealer(secret)
		got, err := o.Open(s.Seal(msg))
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
