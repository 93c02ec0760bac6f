package profilering

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestHeapCaptureAndRetrieval(t *testing.T) {
	r := New(4, 0)
	ok, err := r.TryCapture(KindHeap, "test trip")
	if err != nil || !ok {
		t.Fatalf("TryCapture = %v, %v", ok, err)
	}
	ps := r.Profiles()
	if len(ps) != 1 || ps[0].Kind != KindHeap || ps[0].Reason != "test trip" {
		t.Fatalf("profiles = %+v", ps)
	}
	if ps[0].Bytes == 0 {
		t.Fatalf("empty heap profile")
	}
	if ps[0].Data != nil {
		t.Fatalf("listing leaked profile data")
	}
	p, found := r.Get(ps[0].ID)
	if !found || len(p.Data) != p.Bytes {
		t.Fatalf("Get: found=%v len=%d want %d", found, len(p.Data), p.Bytes)
	}
}

func TestCPUCapture(t *testing.T) {
	r := New(4, 0)
	r.CPUDuration = 50 * time.Millisecond
	ok, err := r.TryCapture(KindCPU, "latency burn")
	if err != nil || !ok {
		t.Fatalf("TryCapture = %v, %v", ok, err)
	}
	ps := r.Profiles()
	if len(ps) != 1 || ps[0].Kind != KindCPU || ps[0].DurationNS != (50*time.Millisecond).Nanoseconds() {
		t.Fatalf("profiles = %+v", ps)
	}
	if ps[0].Bytes == 0 {
		t.Fatalf("empty cpu profile")
	}
}

func TestCooldownAndEviction(t *testing.T) {
	r := New(2, time.Minute)
	now := time.Unix(1_700_000_000, 0)
	r.now = func() time.Time { return now }

	if ok, _ := r.TryCapture(KindHeap, "first"); !ok {
		t.Fatalf("first capture refused")
	}
	// Inside the cooldown: refused, counted.
	if ok, _ := r.TryCapture(KindHeap, "too soon"); ok {
		t.Fatalf("capture inside cooldown accepted")
	}
	if r.skipped != 1 {
		t.Fatalf("skipped = %d, want 1", r.skipped)
	}

	// Advance past the cooldown twice; the 3rd capture evicts the 1st.
	now = now.Add(2 * time.Minute)
	if ok, _ := r.TryCapture(KindHeap, "second"); !ok {
		t.Fatalf("second capture refused")
	}
	now = now.Add(2 * time.Minute)
	if ok, _ := r.TryCapture(KindHeap, "third"); !ok {
		t.Fatalf("third capture refused")
	}
	ps := r.Profiles()
	if len(ps) != 2 || ps[0].Reason != "third" || ps[1].Reason != "second" {
		t.Fatalf("ring = %+v, want third,second", ps)
	}
	if _, found := r.Get(1); found {
		t.Fatalf("evicted profile still retrievable")
	}
}

func TestConcurrentTryCaptureSingleflight(t *testing.T) {
	r := New(8, 0)
	r.CPUDuration = 50 * time.Millisecond
	var wg sync.WaitGroup
	captured := make([]bool, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ok, _ := r.TryCapture(KindCPU, "race")
			captured[i] = ok
		}(i)
	}
	wg.Wait()
	n := 0
	for _, ok := range captured {
		if ok {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d concurrent captures succeeded, want exactly 1", n)
	}
	if r.skipped != 7 {
		t.Fatalf("skipped = %d, want 7", r.skipped)
	}
}

func TestHandler(t *testing.T) {
	r := New(4, 0)
	if ok, err := r.TryCapture(KindHeap, "handler test"); !ok || err != nil {
		t.Fatalf("capture failed: %v %v", ok, err)
	}
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Profiles []Profile `json:"profiles"`
		Skipped  uint64    `json:"skipped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(body.Profiles) != 1 || body.Profiles[0].Reason != "handler test" {
		t.Fatalf("index = %+v", body)
	}

	// Download the raw pprof bytes.
	resp2, err := srv.Client().Get(srv.URL + "?id=1")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != 200 || len(data) != body.Profiles[0].Bytes {
		t.Fatalf("download: code=%d len=%d want %d", resp2.StatusCode, len(data), body.Profiles[0].Bytes)
	}

	// Missing and malformed IDs.
	if resp, _ := srv.Client().Get(srv.URL + "?id=99"); resp.StatusCode != 404 {
		t.Fatalf("missing id = %d, want 404", resp.StatusCode)
	}
	if resp, _ := srv.Client().Get(srv.URL + "?id=soon"); resp.StatusCode != 400 {
		t.Fatalf("bad id = %d, want 400", resp.StatusCode)
	}
}
