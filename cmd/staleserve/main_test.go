package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/staleserve"
)

func TestParseByteSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64 // 0: rejected
	}{
		{"4096", 4096},
		{"1KiB", 1 << 10},
		{"512MiB", 512 << 20},
		{"4GiB", 4 << 30},
		{"2 TiB", 2 << 40},
		{"8388607TiB", 8388607 << 40}, // the largest TiB count that fits
		{"8388608TiB", 0},             // 2^63: one past int64
		{"9000000TiB", 0},
		{"9223372036854775807", 1<<63 - 1},
		{"9223372036854775808", 0},
		{"", 0},
		{"0", 0},
		{"-1GiB", 0},
		{"4GB", 0},
		{"GiB", 0},
		{"lots", 0},
	} {
		got, err := parseByteSize(tc.in)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("parseByteSize(%q) = %d, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("parseByteSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
}

func TestParseSimScale(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int // 0: rejected
	}{
		{"sim:scale=1", 1},
		{"sim:scale=8", 8},
		{"sim:scale=0", 0},
		{"sim:scale=-2", 0},
		{"sim:scale=", 0},
		{"sim:scale=x", 0},
		{"sim:8", 0},
		{"sim:", 0},
	} {
		got, err := parseSimScale(tc.in)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("parseSimScale(%q) = %d, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("parseSimScale(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
}

// TestServeCorpusAndRestartFromStore runs the built command on a corpus
// without a feed: its /v1/* bodies must be byte-identical to an in-process
// server over the same trained detector, with and without -store, and a
// restart with -store must boot from the persisted epoch and serve the
// same bodies. So must a live warm start from the corpus on an empty feed.
func TestServeCorpusAndRestartFromStore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs staleserve")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "staleserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building staleserve: %v\n%s", err, out)
	}

	gen, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		t.Fatal(err)
	}
	corpus := filepath.Join(dir, "small.wcc")
	var buf bytes.Buffer
	if err := gen.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(corpus, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cube, err := changecube.ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.Train(cube, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := staleserve.NewLive()
	ref.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	ref.Swap(det)
	refGet := func(path string) []byte {
		rec := httptest.NewRecorder()
		ref.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("in-process GET %s: %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}

	var listing struct {
		Alerts []staleserve.Alert `json:"alerts"`
	}
	if err := json.Unmarshal(refGet("/v1/stale?window=7"), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Alerts) == 0 {
		t.Fatal("no stale alerts in the reference listing; nothing to explain")
	}
	field := fmt.Sprintf("page=%s&property=%s",
		url.QueryEscape(listing.Alerts[0].Page), url.QueryEscape(listing.Alerts[0].Property))
	paths := []string{"/v1/stale?window=7", "/v1/field?" + field, "/v1/explain?" + field + "&window=7", "/v1/stats", "/v1/catalog"}

	store := filepath.Join(dir, "store")
	emptyFeed := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(emptyFeed, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name     string
		args     []string
		recovery string // the /statusz recovery outcome; "" when no store is open
	}{
		{"corpus", []string{"-i", corpus}, ""},
		{"corpus+store", []string{"-i", corpus, "-store", store}, ""},
		{"restart", []string{"-i", corpus, "-store", store}, "latest"},
		// A live warm start trains on its staging snapshot of the corpus.
		{"live warm start", []string{"-live", "-i", corpus, "-source", emptyFeed}, ""},
	} {
		base, stop := startServer(t, bin, run.args...)
		for _, path := range paths {
			if got, want := get(t, base+path), refGet(path); !bytes.Equal(got, want) {
				t.Errorf("%s: GET %s differs from the in-process server:\n  command:    %.300s\n  in-process: %.300s", run.name, path, got, want)
			}
		}
		if run.recovery != "" {
			want := fmt.Sprintf("%q: %q", "recovery_outcome", run.recovery)
			if status := get(t, base+"/statusz"); !bytes.Contains(status, []byte(want)) {
				t.Errorf("%s: /statusz lacks %s:\n%s", run.name, want, status)
			}
		}
		stop()
	}
}

// startServer runs bin with args on a free loopback port until it is
// ready, and returns its base URL and a function that stops it.
func startServer(t *testing.T, bin string, args ...string) (string, func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	var logs bytes.Buffer
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = &logs, &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			_ = cmd.Process.Signal(syscall.SIGTERM)
			select {
			case <-exited:
			case <-time.After(15 * time.Second):
				_ = cmd.Process.Kill()
				<-exited
				t.Errorf("staleserve did not stop within 15s of SIGTERM:\n%s", logs.String())
			}
		})
	}
	t.Cleanup(stop) // a failed check must not leave the server running
	base := "http://" + addr
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case err := <-exited:
			exited <- err // for the cleanup's stop
			t.Fatalf("staleserve %v exited before it was ready (%v):\n%s", args, err, logs.String())
		default:
		}
		if resp, err := http.Get(base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return base, stop
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("staleserve %v not ready within 60s:\n%s", args, logs.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func get(t *testing.T, u string) []byte {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", u, resp.StatusCode, body)
	}
	return body
}
