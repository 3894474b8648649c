// Package profring is a continuous-profiling ring: it periodically
// captures CPU and heap profiles into a bounded on-disk ring so that a
// production bottleneck — a pathological spec, a GC death spiral, a
// stuck rip-up ladder — is diagnosable *after the fact* from the window
// around the incident, without anyone having had a pprof session open at
// the time. The daemon serves the ring at /debug/profiles (JSON index)
// and /debug/profiles/{id} (raw pprof bytes, `go tool pprof`-ready).
//
// Capture is cooperative with ad-hoc profiling: the runtime allows one
// CPU profile at a time, so when an operator holds /debug/pprof/profile
// the ring's CPU capture for that tick is skipped (recorded as such),
// never failed. Heap captures have no such exclusivity and always land.
package profring

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// Entry describes one captured profile in the ring index.
type Entry struct {
	// ID names the profile file and the /debug/profiles/{id} path:
	// "000042-cpu" or "000042-heap".
	ID string `json:"id"`
	// Kind is "cpu" or "heap".
	Kind string `json:"kind"`
	// Start is when the capture began.
	Start time.Time `json:"start"`
	// DurMS is the CPU sampling window (0 for heap snapshots).
	DurMS int64 `json:"dur_ms"`
	// Bytes is the profile file's size.
	Bytes int64 `json:"bytes"`
}

// Ring captures profiles into dir, keeping at most keep most-recent
// entries per kind. Safe for concurrent use; Rotate may be driven by
// Start's ticker, a test, or both.
type Ring struct {
	dir    string
	keep   int
	cpuDur time.Duration

	mu      sync.Mutex
	seq     int
	entries []Entry
	skipped int // CPU ticks lost to a concurrent profiler
}

// New opens (creating if needed) a ring in dir keeping the last keep
// profiles per kind. cpuDur is each CPU capture's sampling window; ≤0
// defaults to one second. Pre-existing ring files in dir are adopted
// into the index so a restart keeps its history.
func New(dir string, keep int, cpuDur time.Duration) (*Ring, error) {
	if keep <= 0 {
		keep = 16
	}
	if cpuDur <= 0 {
		cpuDur = time.Second
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("profring: %w", err)
	}
	r := &Ring{dir: dir, keep: keep, cpuDur: cpuDur}
	if err := r.adopt(); err != nil {
		return nil, err
	}
	return r, nil
}

// adopt indexes profile files already in dir (from a previous run) and
// advances seq past them.
func (r *Ring) adopt() error {
	names, err := filepath.Glob(filepath.Join(r.dir, "*-*.pprof"))
	if err != nil {
		return fmt.Errorf("profring: %w", err)
	}
	sort.Strings(names)
	for _, path := range names {
		base := strings.TrimSuffix(filepath.Base(path), ".pprof")
		var seq int
		var kind string
		if _, err := fmt.Sscanf(base, "%06d-%s", &seq, &kind); err != nil {
			continue
		}
		if kind != "cpu" && kind != "heap" {
			continue
		}
		fi, err := os.Stat(path)
		if err != nil {
			continue
		}
		r.entries = append(r.entries, Entry{
			ID: base, Kind: kind, Start: fi.ModTime(), Bytes: fi.Size(),
		})
		if seq >= r.seq {
			r.seq = seq + 1
		}
	}
	r.evictLocked()
	return nil
}

// Rotate captures one heap profile and one CPU profile (blocking for the
// CPU sampling window) and evicts beyond the keep bound. A CPU capture
// refused because another profiler is active is skipped, not an error.
func (r *Ring) Rotate() error {
	if err := r.captureHeap(); err != nil {
		return err
	}
	return r.captureCPU()
}

func (r *Ring) nextSeq() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.seq
	r.seq++
	return s
}

func (r *Ring) captureHeap() error {
	seq := r.nextSeq()
	id := fmt.Sprintf("%06d-heap", seq)
	path := filepath.Join(r.dir, id+".pprof")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("profring: %w", err)
	}
	start := time.Now()
	err = pprof.Lookup("heap").WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("profring: heap capture: %w", err)
	}
	fi, _ := os.Stat(path)
	var size int64
	if fi != nil {
		size = fi.Size()
	}
	r.record(Entry{ID: id, Kind: "heap", Start: start, Bytes: size})
	return nil
}

func (r *Ring) captureCPU() error {
	seq := r.nextSeq()
	id := fmt.Sprintf("%06d-cpu", seq)
	path := filepath.Join(r.dir, id+".pprof")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("profring: %w", err)
	}
	start := time.Now()
	if err := pprof.StartCPUProfile(f); err != nil {
		// Another profiler (an operator's /debug/pprof/profile, or a
		// concurrent Rotate) holds the runtime's single CPU profiling
		// slot. Skip this tick rather than fight over it.
		f.Close()
		os.Remove(path)
		r.mu.Lock()
		r.skipped++
		r.mu.Unlock()
		return nil
	}
	time.Sleep(r.cpuDur)
	pprof.StopCPUProfile()
	err = f.Close()
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("profring: cpu capture: %w", err)
	}
	fi, _ := os.Stat(path)
	var size int64
	if fi != nil {
		size = fi.Size()
	}
	r.record(Entry{ID: id, Kind: "cpu", Start: start, DurMS: r.cpuDur.Milliseconds(), Bytes: size})
	return nil
}

func (r *Ring) record(e Entry) {
	r.mu.Lock()
	r.entries = append(r.entries, e)
	r.evictLocked()
	r.mu.Unlock()
}

// evictLocked drops the oldest entries of each kind beyond keep,
// deleting their files. Caller holds (or is New, before publishing) mu.
func (r *Ring) evictLocked() {
	byKind := map[string]int{}
	for _, e := range r.entries {
		byKind[e.Kind]++
	}
	kept := r.entries[:0]
	for _, e := range r.entries { // entries are append-ordered: oldest first
		if byKind[e.Kind] > r.keep {
			byKind[e.Kind]--
			os.Remove(filepath.Join(r.dir, e.ID+".pprof"))
			continue
		}
		kept = append(kept, e)
	}
	r.entries = kept
}

// Entries returns the index, oldest first.
func (r *Ring) Entries() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Entry(nil), r.entries...)
}

// Skipped reports CPU ticks lost to a concurrent profiler.
func (r *Ring) Skipped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.skipped
}

// Dir returns the ring's directory.
func (r *Ring) Dir() string { return r.dir }

// Start rotates on a background ticker until the returned stop function
// is called. Each tick blocks inside Rotate for the CPU window, so the
// effective period is interval + cpuDur. Stop is idempotent and does not
// interrupt a capture already in flight.
func (r *Ring) Start(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Minute
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				// Rotation failure (disk full, dir removed) must not kill
				// the daemon; the next tick retries.
				_ = r.Rotate()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// ringIndex is the /debug/profiles JSON document.
type ringIndex struct {
	Dir        string  `json:"dir"`
	Keep       int     `json:"keep"`
	CPUSkipped int     `json:"cpu_skipped"`
	Profiles   []Entry `json:"profiles"`
}

// ServeIndex writes the JSON index: GET /debug/profiles.
func (r *Ring) ServeIndex(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	idx := ringIndex{Dir: r.dir, Keep: r.keep, CPUSkipped: r.skipped,
		Profiles: append([]Entry(nil), r.entries...)}
	r.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(idx)
}

// ServeProfile streams one captured profile's raw pprof bytes:
// GET /debug/profiles/{id}. Unknown or path-escaping ids 404.
func (r *Ring) ServeProfile(w http.ResponseWriter, req *http.Request, id string) {
	r.mu.Lock()
	found := false
	for _, e := range r.entries {
		if e.ID == id {
			found = true
			break
		}
	}
	r.mu.Unlock()
	// Only ids present in the index are served, which also forecloses
	// any path traversal through the id segment.
	if !found {
		http.NotFound(w, req)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".pprof"))
	http.ServeFile(w, req, filepath.Join(r.dir, id+".pprof"))
}
