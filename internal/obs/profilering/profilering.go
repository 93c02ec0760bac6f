// Package profilering captures pprof profiles on demand into a bounded
// in-memory ring, so a burn-rate trip (internal/obs/slo) leaves a CPU or
// heap profile behind even when nobody was watching — the profile of the
// incident, not of the quiet period after it.
//
// Captures are serialized: at most one profile is being taken at any
// moment (Go's CPU profiler is process-global anyway), and a cooldown
// keeps a flapping trigger from turning the process into a profiling
// loop. The ring holds the most recent N profiles with their capture
// reason and is served by Handler: GET lists the captures as JSON,
// ?id=<n> downloads one profile in the standard pprof format, ready for
// `go tool pprof`.
package profilering

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"github.com/wikistale/wikistale/internal/obs/ring"
)

// Kind is the profile type captured.
type Kind string

const (
	KindCPU  Kind = "cpu"
	KindHeap Kind = "heap"
)

// Profile is one captured profile. Data is the raw pprof protobuf.
type Profile struct {
	ID     uint64    `json:"id"`
	Kind   Kind      `json:"kind"`
	Reason string    `json:"reason"`
	Taken  time.Time `json:"taken"`
	// DurationNS is the sampling window for CPU profiles (0 for heap).
	DurationNS int64  `json:"duration_ns,omitempty"`
	Bytes      int    `json:"bytes"`
	Data       []byte `json:"-"`
}

// Ring is a bounded buffer of captured profiles. All methods are safe
// for concurrent use.
type Ring struct {
	profiles *ring.Ring[Profile]
	cooldown time.Duration
	// CPUDuration is the CPU profile sampling window (default 1s); tests
	// shorten it. Set before the first capture.
	CPUDuration time.Duration

	now func() time.Time

	mu          sync.Mutex
	nextID      uint64
	lastCapture time.Time
	capturing   bool
	skipped     uint64
}

// New returns a ring holding the most recent capacity profiles, refusing
// captures closer together than cooldown.
func New(capacity int, cooldown time.Duration) *Ring {
	return &Ring{
		profiles:    ring.New[Profile](capacity),
		cooldown:    cooldown,
		CPUDuration: time.Second,
		now:         time.Now,
	}
}

// TryCapture captures a profile of the given kind unless a capture is
// already running or the cooldown has not elapsed; it reports whether a
// capture actually happened. CPU captures block for CPUDuration — call
// from a goroutine when latency matters. The error is non-nil only for a
// capture that started and failed.
func (r *Ring) TryCapture(kind Kind, reason string) (bool, error) {
	now := r.now()
	r.mu.Lock()
	if r.capturing || (!r.lastCapture.IsZero() && now.Sub(r.lastCapture) < r.cooldown) {
		r.skipped++
		r.mu.Unlock()
		return false, nil
	}
	r.capturing = true
	r.lastCapture = now
	r.mu.Unlock()

	data, dur, err := r.capture(kind)

	r.mu.Lock()
	r.capturing = false
	if err == nil {
		r.nextID++
		r.profiles.Push(Profile{
			ID:         r.nextID,
			Kind:       kind,
			Reason:     reason,
			Taken:      now,
			DurationNS: dur.Nanoseconds(),
			Bytes:      len(data),
			Data:       data,
		})
	}
	r.mu.Unlock()
	if err != nil {
		return false, err
	}
	return true, nil
}

func (r *Ring) capture(kind Kind) ([]byte, time.Duration, error) {
	var buf bytes.Buffer
	switch kind {
	case KindCPU:
		if err := pprof.StartCPUProfile(&buf); err != nil {
			// Another CPU profile is running (e.g. /debug/pprof/profile).
			return nil, 0, fmt.Errorf("cpu profile: %w", err)
		}
		d := r.CPUDuration
		if d <= 0 {
			d = time.Second
		}
		time.Sleep(d)
		pprof.StopCPUProfile()
		return buf.Bytes(), d, nil
	case KindHeap:
		runtime.GC() // fold unreachable objects out of the live-heap picture
		if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
			return nil, 0, fmt.Errorf("heap profile: %w", err)
		}
		return buf.Bytes(), 0, nil
	default:
		return nil, 0, fmt.Errorf("unknown profile kind %q", kind)
	}
}

// Profiles lists the buffered captures, newest first, without data.
func (r *Ring) Profiles() []Profile {
	out := r.profiles.Newest()
	for i := range out {
		out[i].Data = nil
	}
	return out
}

// Len reports the number of buffered captures.
func (r *Ring) Len() int { return r.profiles.Len() }

// Get returns the full profile for an ID, if still buffered.
func (r *Ring) Get(id uint64) (p Profile, found bool) {
	r.profiles.Each(func(q *Profile) bool {
		if q.ID == id {
			p, found = *q, true
		}
		return !found
	})
	return p, found
}

// Handler serves the ring: GET lists captures as JSON (newest first);
// GET ?id=N downloads that profile's pprof bytes.
func (r *Ring) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if v := req.URL.Query().Get("id"); v != "" {
			id, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				writeProfJSON(w, http.StatusBadRequest, map[string]string{"error": "bad id " + strconv.Quote(v)})
				return
			}
			p, ok := r.Get(id)
			if !ok {
				writeProfJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("profile %d not in the ring (evicted or never captured)", id)})
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Disposition",
				fmt.Sprintf("attachment; filename=%s-%d.pprof", p.Kind, p.ID))
			_, _ = w.Write(p.Data)
			return
		}
		r.mu.Lock()
		skipped := r.skipped
		r.mu.Unlock()
		writeProfJSON(w, http.StatusOK, map[string]any{
			"profiles": r.Profiles(),
			"skipped":  skipped,
		})
	})
}

func writeProfJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
