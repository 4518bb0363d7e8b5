package shard

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
)

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type %q is not Prometheus text 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts an unlabeled sample's value from a scrape; -1
// means absent.
func metricValue(t *testing.T, scrape, name string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindStringSubmatch(scrape)
	if m == nil {
		return -1
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s value %q: %v", name, m[1], err)
	}
	return v
}

// GET /metrics serves the service, supervision and trial counters in
// Prometheus text form, and campaign counters increase monotonically
// across campaigns — the contract the CI scrape gate curls for.
func TestServiceMetricsEndpoint(t *testing.T) {
	svc, err := NewService(ServiceConfig{Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// The kill fault forces a retry, so the supervision counters move.
	faults := &fleet.FaultPlan{Shards: []fleet.ShardFault{{Shard: 0, Mode: fleet.ShardKill, AfterTrials: 1}}}
	code, out, _ := postCampaign(t, ts.URL, submitBody(t, "smoke", 7, 2, faults))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, out)
	}
	id, _ := out["id"].(string)
	if state := pollDone(t, ts.URL, id); state != "done" {
		t.Fatalf("campaign ended %q", state)
	}

	body := scrape(t, ts.URL)
	if !strings.Contains(body, "# TYPE fleetd_campaigns_done_total counter") {
		t.Fatalf("scrape lacks the done-counter TYPE header:\n%s", body)
	}
	if got := metricValue(t, body, "fleetd_campaigns_done_total"); got != 1 {
		t.Errorf("fleetd_campaigns_done_total = %v, want 1", got)
	}
	if got := metricValue(t, body, "fleetd_queue_depth"); got != 0 {
		t.Errorf("fleetd_queue_depth = %v, want 0 at idle", got)
	}
	trials := float64(fleet.MustPreset("smoke").Trials())
	// The killed shard's completed trial is restored from its journal,
	// not re-executed, so completed-by-this-process still equals the
	// campaign's trial count.
	if got := metricValue(t, body, "fleet_trials_completed_total"); got != trials {
		t.Errorf("fleet_trials_completed_total = %v, want %v", got, trials)
	}
	// 2 shards, one killed once and relaunched: at least 3 attempts,
	// at least 1 backoff.
	if got := metricValue(t, body, "shard_attempts_total"); got < 3 {
		t.Errorf("shard_attempts_total = %v, want >= 3", got)
	}
	if got := metricValue(t, body, "shard_backoffs_total"); got < 1 {
		t.Errorf("shard_backoffs_total = %v, want >= 1", got)
	}

	// Counters are monotone across campaigns.
	code, out, _ = postCampaign(t, ts.URL, submitBody(t, "smoke", 8, 2, nil))
	if code != http.StatusAccepted {
		t.Fatalf("second submit: %d %v", code, out)
	}
	id2, _ := out["id"].(string)
	if state := pollDone(t, ts.URL, id2); state != "done" {
		t.Fatalf("second campaign ended %q", state)
	}
	body2 := scrape(t, ts.URL)
	if got := metricValue(t, body2, "fleetd_campaigns_done_total"); got != 2 {
		t.Errorf("fleetd_campaigns_done_total after second campaign = %v, want 2", got)
	}
	if a, b := metricValue(t, body, "fleet_trials_completed_total"), metricValue(t, body2, "fleet_trials_completed_total"); b <= a {
		t.Errorf("fleet_trials_completed_total not monotone: %v then %v", a, b)
	}
}

// /healthz reports structured state: accepting vs draining plus live
// queue and worker counts, replacing the old bare liveness body.
func TestServiceHealthStructured(t *testing.T) {
	svc, err := NewService(ServiceConfig{QueueDepth: 3, Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	getHealth := func() health {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	h := getHealth()
	if h.State != "accepting" || h.QueueDepth != 0 || h.QueueCapacity != 3 || h.Running != 0 || h.ActiveShards != 0 {
		t.Errorf("idle health wrong: %+v", h)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if h := getHealth(); h.State != "draining" {
		t.Errorf("post-drain health state %q, want draining", h.State)
	}
}

// The status endpoint carries campaign progress: after completion,
// trials done equals the campaign's total and a positive rate was
// measured.
func TestServiceStatusProgress(t *testing.T) {
	svc, err := NewService(ServiceConfig{Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	code, out, _ := postCampaign(t, ts.URL, submitBody(t, "smoke", 7, 2, nil))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, out)
	}
	id, _ := out["id"].(string)
	if state := pollDone(t, ts.URL, id); state != "done" {
		t.Fatalf("campaign ended %q", state)
	}
	resp, err := http.Get(ts.URL + "/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	trials := fleet.MustPreset("smoke").Trials()
	if st.TrialsTotal != trials || st.TrialsDone != trials {
		t.Errorf("progress %d/%d, want %d/%d", st.TrialsDone, st.TrialsTotal, trials, trials)
	}
	if st.RatePerSec <= 0 {
		t.Errorf("rate_per_sec = %v, want > 0 after completion", st.RatePerSec)
	}
	if st.ETASeconds != 0 {
		t.Errorf("eta_seconds = %v, want 0 once terminal", st.ETASeconds)
	}
	if st.Retries != 0 {
		t.Errorf("retries = %d, want 0 in a fault-free run", st.Retries)
	}
}

// /debug/pprof is opt-in: absent by default, mounted with EnablePprof.
func TestServicePprofGate(t *testing.T) {
	off, err := NewService(ServiceConfig{Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Drain(context.Background())
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	if resp, err := http.Get(tsOff.URL + "/debug/pprof/"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof reachable without opt-in: %v %v", resp.StatusCode, err)
	}

	on, err := NewService(ServiceConfig{Dir: t.TempDir(), EnablePprof: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer on.Drain(context.Background())
	tsOn := httptest.NewServer(on.Handler())
	defer tsOn.Close()
	resp, err := http.Get(tsOn.URL + "/debug/pprof/")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index with opt-in: %v %v", resp.StatusCode, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index does not look like pprof: %.200s", body)
	}
}
