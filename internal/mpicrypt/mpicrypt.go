// Package mpicrypt implements the paper's "Option #1" comparator for
// the network area (§III, §IV-D): securing HPC traffic by modifying
// the application/library layer — encrypting MPI messages — instead of
// securing the system. The paper cites MPISec I/O [33] and the
// cryptographic-MPI study [23], and notes such efforts "have seen
// little adoption".
//
// This package makes the trade-off measurable (experiment E14): an
// AES-256-GCM channel pays per *byte* on every data packet forever,
// while the UBF pays a fixed cost per *connection* and rides
// conntrack afterwards. It also demonstrates the deployment weakness:
// both endpoints must share a key out of band, and unencrypted peers
// are silently interoperable-with-nothing.
package mpicrypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/netsim"
)

// Sealer is one direction of an encrypted MPI channel: AES-256-GCM
// with a counter nonce (unique per message within the channel). It
// takes no lock: its channel has one owner goroutine, like a cluster
// (DESIGN.md §7, "One owner per cluster").
type Sealer struct {
	aead  cipher.AEAD
	nonce uint64
}

// Crypt errors.
var (
	ErrTampered = errors.New("mpicrypt: message authentication failed")
	ErrShort    = errors.New("mpicrypt: message too short")
)

// NewSealer derives an AES-256-GCM sealer from an arbitrary-length
// shared secret (hashed to 32 bytes, the way MPI ranks would derive a
// session key from a job token).
func NewSealer(sharedSecret []byte) (*Sealer, error) {
	key := sha256.Sum256(sharedSecret)
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &Sealer{aead: aead}, nil
}

// Seal encrypts a message: 8-byte nonce counter || ciphertext+tag.
func (s *Sealer) Seal(plain []byte) []byte {
	n := s.nonce
	s.nonce++
	nonce := make([]byte, s.aead.NonceSize())
	binary.BigEndian.PutUint64(nonce[len(nonce)-8:], n)
	out := make([]byte, 8, 8+len(plain)+s.aead.Overhead())
	binary.BigEndian.PutUint64(out, n)
	return s.aead.Seal(out, nonce, plain, out[:8])
}

// Open authenticates and decrypts a sealed message.
func (s *Sealer) Open(box []byte) ([]byte, error) {
	if len(box) < 8+s.aead.Overhead() {
		return nil, fmt.Errorf("%w: %d bytes", ErrShort, len(box))
	}
	nonce := make([]byte, s.aead.NonceSize())
	copy(nonce[len(nonce)-8:], box[:8])
	plain, err := s.aead.Open(nil, nonce, box[8:], box[:8])
	if err != nil {
		return nil, ErrTampered
	}
	return plain, nil
}

// SecureConn wraps a simulated connection with encryption on the
// dialer->acceptor direction (the bulk-data direction in the E14
// benchmark). Both sides must construct it from the same secret.
type SecureConn struct {
	conn   *netsim.Conn
	sealer *Sealer
}

// Secure wraps conn with a sealer derived from sharedSecret.
func Secure(conn *netsim.Conn, sharedSecret []byte) (*SecureConn, error) {
	s, err := NewSealer(sharedSecret)
	if err != nil {
		return nil, err
	}
	return &SecureConn{conn: conn, sealer: s}, nil
}

// Send encrypts and transmits.
func (c *SecureConn) Send(plain []byte) error {
	return c.conn.Send(c.sealer.Seal(plain))
}
