package shard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
)

// submitBody builds the POST /campaigns envelope for a preset.
func submitBody(t *testing.T, preset string, seed uint64, shards int, faults *fleet.FaultPlan) []byte {
	t.Helper()
	camp, err := fleet.EncodeCampaign(fleet.MustPreset(preset))
	if err != nil {
		t.Fatal(err)
	}
	sub := Submission{Campaign: camp, Seed: seed, Shards: shards, Faults: faults}
	data, err := json.Marshal(sub)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func postCampaign(t *testing.T, url string, body []byte) (int, map[string]any, http.Header) {
	t.Helper()
	resp, err := http.Post(url+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header
}

// pollDone polls the status endpoint until the job reaches a terminal
// state.
func pollDone(t *testing.T, url, id string) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case "done", "failed", "drained":
			return st.State
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("campaign did not reach a terminal state")
	return ""
}

// The endpoint smoke test plus the tentpole's service-level identity
// criterion: submit → poll → fetch, with an active shard-kill fault
// plan, and the fetched bytes equal a clean 1-process run's.
func TestServiceSubmitPollFetch(t *testing.T) {
	svc, err := NewService(ServiceConfig{
		Dir:         t.TempDir(),
		BackoffBase: time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	faults := &fleet.FaultPlan{Shards: []fleet.ShardFault{{Shard: 0, Mode: fleet.ShardKill, AfterTrials: 1}}}
	code, out, _ := postCampaign(t, ts.URL, submitBody(t, "smoke", 7, 2, faults))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, out)
	}
	id, _ := out["id"].(string)
	if id == "" {
		t.Fatalf("no id in %v", out)
	}
	if state := pollDone(t, ts.URL, id); state != "done" {
		t.Fatalf("campaign ended %q, want done", state)
	}

	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("results: %d %v", resp.StatusCode, err)
	}
	clean := cleanJSON(t, fleet.MustPreset("smoke"), 7)
	if !bytes.Equal(got, clean) {
		t.Fatalf("service results differ from the clean 1-process run:\n%s\nvs\n%s", got, clean)
	}

	// The stream endpoint replays the per-scenario results (ascending)
	// and a terminal line, even after completion.
	resp, err = http.Get(ts.URL + "/campaigns/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var lines []map[string]any
	for sc.Scan() {
		var v map[string]any
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("stream line not JSON: %q", sc.Text())
		}
		lines = append(lines, v)
	}
	want := len(fleet.MustPreset("smoke").Scenarios)
	if len(lines) != want+1 {
		t.Fatalf("stream sent %d lines, want %d scenarios + 1 terminal", len(lines), want)
	}
	for i := 0; i < want; i++ {
		if int(lines[i]["scenario"].(float64)) != i {
			t.Fatalf("stream out of order at line %d: %v", i, lines[i])
		}
	}
	if lines[want]["done"] != true || lines[want]["state"] != "done" {
		t.Fatalf("terminal line wrong: %v", lines[want])
	}

	// Unknown id and malformed submissions are client errors.
	if resp, _ := http.Get(ts.URL + "/campaigns/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: %d", resp.StatusCode)
	}
	if code, out, _ := postCampaign(t, ts.URL, []byte(`{"campain":{}}`)); code != http.StatusBadRequest {
		t.Errorf("typo envelope accepted: %d %v", code, out)
	}
	if code, out, _ := postCampaign(t, ts.URL, submitBody(t, "smoke", 7, 2,
		&fleet.FaultPlan{Shards: []fleet.ShardFault{{Shard: 5, Mode: fleet.ShardKill, AfterTrials: 1}}})); code != http.StatusBadRequest {
		t.Errorf("fault aimed past the shard count accepted: %d %v", code, out)
	}
	// A valid submission padded past the body cap is refused unread.
	padded := append(bytes.Repeat([]byte(" "), maxSubmitBytes), submitBody(t, "smoke", 7, 2, nil)...)
	if code, out, _ := postCampaign(t, ts.URL, padded); code != http.StatusRequestEntityTooLarge {
		t.Errorf("submission of %d bytes over the %d-byte cap: %d %v, want 413", len(padded), maxSubmitBytes, code, out)
	}
}

// Backpressure: with a single busy worker and a one-deep queue, a
// third submission gets 429 + Retry-After; a drain then marks the
// in-flight campaign interrupted, answers 503 to new submissions, and
// flips /healthz to draining.
func TestServiceBackpressureAndDrain(t *testing.T) {
	svc, err := NewService(ServiceConfig{
		QueueDepth:  1,
		Concurrency: 1,
		Dir:         t.TempDir(),
		RetryAfter:  3 * time.Second,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// A slow campaign occupies the worker long enough to fill the
	// queue behind it deterministically.
	slow := &fleet.FaultPlan{Shards: []fleet.ShardFault{
		{Shard: 0, Mode: fleet.ShardSlow, DelayMS: 300},
		{Shard: 1, Mode: fleet.ShardSlow, DelayMS: 300},
	}}
	code, first, _ := postCampaign(t, ts.URL, submitBody(t, "smoke", 7, 2, slow))
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	code, _, _ = postCampaign(t, ts.URL, submitBody(t, "smoke", 8, 2, nil))
	if code != http.StatusAccepted {
		t.Fatalf("second submit (queued): %d", code)
	}
	code, out, hdr := postCampaign(t, ts.URL, submitBody(t, "smoke", 9, 2, nil))
	if code != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d %v, want 429", code, out)
	}
	if ra := hdr.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", ra)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !svc.Interrupted() {
		t.Error("drain cut short admitted campaigns but Interrupted() is false")
	}
	if code, _, _ := postCampaign(t, ts.URL, submitBody(t, "smoke", 10, 2, nil)); code != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit: %d, want 503", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "draining") {
		t.Errorf("healthz after drain: %s", body)
	}
	// The first (running) campaign ends drained or done depending on
	// who wins the race; the queued one must be drained.
	id, _ := first["id"].(string)
	if st := pollDone(t, ts.URL, id); st != "drained" && st != "done" {
		t.Errorf("in-flight campaign ended %q", st)
	}
	// List shows both admitted campaigns.
	resp, err = http.Get(ts.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list []jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 2 {
		t.Fatalf("list has %d campaigns, want 2", len(list))
	}
	states := fmt.Sprint(list[0].State, list[1].State)
	if !strings.Contains(states, "drained") {
		t.Errorf("no campaign reports drained after drain: %v", states)
	}
}
