package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bristleblocks/internal/cache"
	"bristleblocks/internal/core"
	"bristleblocks/internal/desc"
	"bristleblocks/internal/scenario"
	"bristleblocks/internal/server"
	"bristleblocks/internal/specgen"
)

// The serve_mix traffic: one closed-loop client over loopback HTTP. Its
// round is one fixed multiset of 600 requests in seeded order — 60% warm
// /compile hits, 20% cold /compile misses (every cold seed once), 10%
// session edits, 10% /verify — so every round does the same work.
//
// One client: with two on a 2-core host, the client and server goroutines
// contend for the cores and the run-to-run spread of throughput and
// latency was 15–22%, against 4–7% with one.
const (
	hotFirstSeed = 120 // hot set: specgen ForPads seeds 120..155, pre-filled
	hotN         = 36
	hotRepeat    = 10  // hits per hot spec per round
	coldN        = 120 // cold pool: ForPads seeds 0..119, each op renamed so the cache has never seen it
	editsPerSess = 10  // specgen.Mutate edits of microproc per session
	editRepeat   = 6
	verifyRepeat = 20 // per example chip
)

const (
	classHit = iota
	classCold
	classEdit
	classVerify
)

var serveClasses = []string{"hit", "cold", "edit", "verify"}

var examples = []string{"adder4", "microproc", "shifter8"}

// serveInput is one distinct request body. Cold inputs hold the spec
// under its base name; each op renames it.
type serveInput struct {
	class   int
	label   string
	text    string
	name    string // cold: the base chip name
	example string // verify: the example chip
	vectors string // verify: its scenario file
	golden  []byte // verify: testdata/golden/scenarios/<example>.json
}

type serveWorkload struct {
	cfg    config
	inputs []serveInput

	srv       *server.Server
	hs        *http.Server
	served    chan error // Serve's return, once the listener is shut
	transport *http.Transport
	client    *http.Client
	base      string
	session   string
	before    promSample

	round []int // the client's round: input indices
	seq   int   // names cold ops uniquely

	repsUS  float64 // representation time reported by cold compiles
	coldOKs int
}

func setupServeMix(cfg config) (workload, error) {
	w := &serveWorkload{cfg: cfg}
	if err := w.makeInputs(); err != nil {
		return nil, err
	}
	par := 1 // bbd's -j default
	if cfg.parallelism != nil {
		par = *cfg.parallelism
	}
	c, err := cache.New(256<<20, "") // bbd's -cache-mb default
	if err != nil {
		return nil, err
	}
	if w.srv, err = server.New(server.Config{Cache: c, Parallelism: par}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.close()
		return nil, err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.transport = &http.Transport{}
	w.client = &http.Client{Transport: w.transport}

	var resp server.SessionResponse
	body, err := w.post("/session", "")
	if err == nil {
		err = json.Unmarshal(body, &resp)
	}
	if err != nil {
		w.close()
		return nil, fmt.Errorf("open session: %w", err)
	}
	w.session = resp.SessionID
	for i, in := range w.inputs {
		n := map[int]int{classHit: hotRepeat, classCold: 1, classEdit: editRepeat, classVerify: verifyRepeat}[in.class]
		for j := 0; j < n; j++ {
			w.round = append(w.round, i)
		}
	}
	// Pre-fill the hot set, then the warm-up pass: one request per other
	// distinct input, but only the first eight cold seeds, under names the
	// timed phase never uses.
	cold := 0
	for i, in := range w.inputs {
		if in.class == classCold {
			if cold++; cold > 8 {
				continue
			}
		}
		if rec := w.do(i, nil); rec.err != "" && in.class != classCold {
			w.close()
			return nil, fmt.Errorf("warm-up %s: %s", in.label, rec.err)
		}
	}
	page, err := w.get("/metrics")
	if err != nil {
		w.close()
		return nil, err
	}
	w.before = parseProm(page)
	w.repsUS, w.coldOKs = 0, 0
	return w, nil
}

func (w *serveWorkload) makeInputs() error {
	add := func(in serveInput) { w.inputs = append(w.inputs, in) }
	forPads := &specgen.Config{ForPads: true}
	for i := 0; i < hotN; i++ {
		s := specgen.FromSeed(int64(hotFirstSeed+i), forPads)
		s.Name = fmt.Sprintf("hot%d", hotFirstSeed+i)
		add(serveInput{class: classHit, label: "ForPads seed " + fmt.Sprint(hotFirstSeed+i), text: desc.Format(s)})
	}
	for i := 0; i < coldN; i++ {
		s := specgen.FromSeed(int64(i), forPads)
		s.Name = fmt.Sprintf("cold%d", i)
		add(serveInput{class: classCold, label: "ForPads seed " + fmt.Sprint(i), text: desc.Format(s), name: s.Name})
	}
	src, err := os.ReadFile("examples/chips/microproc.bb")
	if err != nil {
		return err
	}
	base, err := desc.Parse(string(src))
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(1))
	for j := 0; j < editsPerSess; j++ {
		add(serveInput{class: classEdit, label: fmt.Sprintf("session edit %d", j), text: desc.Format(specgen.Mutate(r, base))})
	}
	for _, ex := range examples {
		spec, err := os.ReadFile(filepath.Join("examples", "chips", ex+".bb"))
		if err != nil {
			return err
		}
		vec, err := os.ReadFile(filepath.Join("examples", "scenarios", ex+".sv"))
		if err != nil {
			return err
		}
		golden, err := os.ReadFile(filepath.Join("testdata", "golden", "scenarios", ex+".json"))
		if err != nil {
			return err
		}
		add(serveInput{class: classVerify, label: ex + " /verify", text: string(spec), example: ex,
			vectors: string(vec), golden: golden})
	}
	for _, in := range w.inputs {
		if _, err := desc.Parse(in.text); err != nil {
			return fmt.Errorf("%s: %w", in.label, err)
		}
	}
	return nil
}

func (w *serveWorkload) timed(deadline time.Time, tr *tracer) ([]opRec, []roundRec) {
	return closedLoop(w.cfg.seed, deadline, tr, w.round, w.do)
}

// compileReply is the part of server.CompileResponse the client reads.
type compileReply struct {
	CIF     string        `json:"cif"`
	TimesUS cache.TimesUS `json:"times_us"`
}

// do sends one request and digests its reply outside the latency window.
func (w *serveWorkload) do(i int, tr *tracer) opRec {
	in := w.inputs[i]
	class := in.class
	text, path := in.text, "/compile?reps=cif"
	var unique string
	switch class {
	case classCold:
		w.seq++
		unique = fmt.Sprintf("%sx%d", in.name, w.seq)
		text = strings.Replace(in.text, "chip "+in.name+"\n", "chip "+unique+"\n", 1)
	case classEdit:
		path = "/session/" + w.session + "/compile?reps=cif"
	case classVerify:
		b, _ := json.Marshal(server.VerifyRequest{Spec: in.text, Vectors: in.vectors})
		text, path = string(b), "/verify"
	}
	t0 := time.Now()
	body, err := w.post(path, text)
	dur := time.Since(t0)
	rec := opRec{class: class, input: i, ms: ms(dur)}
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	var reply compileReply
	switch class {
	case classVerify:
		var vr server.VerifyResponse
		if err = json.Unmarshal(body, &vr); err == nil {
			var b []byte
			b, err = json.MarshalIndent(vr.Verdicts, "", "  ")
			rec.digest = sha256.Sum256(append(b, '\n'))
		}
	default:
		if err = json.Unmarshal(body, &reply); err == nil {
			out := []byte(reply.CIF)
			if class == classCold {
				// The cell names carry the op's unique chip name; map them
				// back to the base name the reference was compiled under.
				out = bytes.ReplaceAll(out, []byte("9 "+unique+";"), []byte("9 "+in.name+";"))
				out = bytes.ReplaceAll(out, []byte("9 "+unique+"."), []byte("9 "+in.name+"."))
			}
			rec.digest = sha256.Sum256(out)
		}
	}
	if err != nil {
		rec.err = "decode reply: " + err.Error()
		return rec
	}
	if class == classCold {
		t := reply.TimesUS
		w.repsUS += float64(t.Total - t.Core - t.Control - t.Pads)
		w.coldOKs++
	}
	if tr != nil {
		op := tr.op()
		root := tr.add(op, 0, serveClasses[class], "http."+serveClasses[class], t0, dur)
		if class == classCold {
			t := reply.TimesUS
			passSpans(tr, op, root, "cold", t0, core.PassTimes{
				Core: time.Duration(t.Core) * time.Microsecond, Control: time.Duration(t.Control) * time.Microsecond,
				Pads: time.Duration(t.Pads) * time.Microsecond, Total: time.Duration(t.Total) * time.Microsecond,
			})
		}
	}
	return rec
}

// post sends a request and returns the body of a 2xx reply; any other
// status is an error carrying the server's message.
func (w *serveWorkload) post(path, body string) ([]byte, error) {
	resp, err := w.client.Post(w.base+path, "text/plain", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

func (w *serveWorkload) get(path string) ([]byte, error) {
	resp, err := w.client.Get(w.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

func (w *serveWorkload) check(memo *checkMemo) ([]ref, []string) {
	opts := core.Options{}
	if w.cfg.parallelism != nil {
		opts.Parallelism = *w.cfg.parallelism
	}
	return checkAll(len(w.inputs), func(i int) (ref, []string) {
		in := w.inputs[i]
		r, chip, out, vs := reference(in.text, opts, memo)
		if in.class != classVerify {
			return r, vs
		}
		if chip == nil {
			return r, vs
		}
		dir := filepath.Join("testdata", "golden", in.example)
		if err := sameAsFile(out, filepath.Join(dir, "chip.cif")); err != nil {
			vs = append(vs, err.Error())
		}
		if err := sameAsFile([]byte(chip.Sticks.Render(16)), filepath.Join(dir, "sticks.txt")); err != nil {
			vs = append(vs, err.Error())
		}
		scs, err := scenario.Parse(in.vectors)
		if err != nil {
			return r, append(vs, fmt.Sprintf("%s: %v", in.label, err))
		}
		b, _ := json.MarshalIndent(scenario.GradeAll(chip, scs), "", "  ")
		if !bytes.Equal(append(b, '\n'), in.golden) {
			vs = append(vs, fmt.Sprintf("%s: in-process verdicts differ from the golden", in.label))
		}
		r.digest = sha256.Sum256(in.golden)
		return r, vs
	})
}

func sameAsFile(got []byte, path string) error {
	want, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: output differs from the golden", path)
	}
	return nil
}

func (w *serveWorkload) classes() []string      { return serveClasses }
func (w *serveWorkload) label(input int) string { return w.inputs[input].label }

func (w *serveWorkload) layers(m map[string]metric, ops []opRec, tr *tracer) {
	for c, name := range serveClasses {
		var lat []float64
		for _, op := range ops {
			if op.class == c {
				lat = append(lat, op.ms)
			}
		}
		m["server."+name+"_ms_p50"] = metric{quantile(lat, 0.5), "ms"}
		m["server."+name+"_ms_p90"] = metric{quantile(lat, 0.9), "ms"}
	}
	page, err := w.get("/metrics")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve_mix: %v\n", err)
		return
	}
	after := parseProm(page)
	d := func(series string) float64 { return after.delta(w.before, series) }
	ratio := func(a, b float64) float64 { return a / max(a+b, 1) }
	m["server.rejected"] = metric{d("bbd_rejected_total"), "count"}
	m["server.errors"] = metric{d("bbd_compile_errors_total"), "count"}
	m["cache.hits"] = metric{d("bbd_cache_hits_total"), "count"}
	m["cache.misses"] = metric{d("bbd_cache_misses_total"), "count"}
	m["cache.evictions"] = metric{d("bbd_cache_evictions_total"), "count"}
	m["cache.hit_ratio"] = metric{ratio(d("bbd_cache_hits_total"), d("bbd_cache_misses_total")), "ratio"}
	m["incr.hit_ratio"] = metric{ratio(d("bbd_incr_hits_total"), d("bbd_incr_misses_total")), "ratio"}
	m["incr.invalidations"] = metric{d("bbd_incr_invalidations_total"), "count"}
	m["scenario.vectors"] = metric{d("bbd_scenario_vectors_total"), "count"}
	m["scenario.grade_ms"] = metric{d("bbd_scenario_grade_latency_ms_sum") / max(d("bbd_scenario_grade_latency_ms_count"), 1), "ms"}

	// Pass times come from cold compiles only; allocations from every
	// compile the server ran: cold, /verify and session edits.
	cold := max(d("bbd_pass_core_latency_ms_count"), 1)
	compiles := max(d("bbd_compiles_total")+d("bbd_incr_session_compiles_total"), 1)
	pass := func(p string) float64 { return d(`bbd_pass_seconds_total{pass="`+p+`"}`) * 1e3 / cold }
	alloc := func(p string) float64 { return d(`bbd_pass_alloc_bytes_total{pass="`+p+`"}`) / (1 << 20) / compiles }
	reps := w.repsUS / 1e3 / float64(max(w.coldOKs, 1))
	m["core.pass_ms"] = metric{pass("core"), "ms"}
	m["decoder.pass_ms"] = metric{pass("control"), "ms"}
	m["pads.pass_ms"] = metric{pass("pads"), "ms"}
	m["reps.pass_ms"] = metric{reps, "ms"}
	m["pads.compile_share"] = metric{pass("pads") / max(pass("core")+pass("control")+pass("pads")+reps, 1e-9), "ratio"}
	m["core.alloc_mb"] = metric{alloc("core"), "MB"}
	m["decoder.alloc_mb"] = metric{alloc("control"), "MB"}
	m["pads.alloc_mb"] = metric{alloc("pads"), "MB"}
	m["reps.alloc_mb"] = metric{alloc("reps"), "MB"}

	// The server's own parse is not visible from outside; time desc.Parse
	// in process on the bodies the ops sent, in the order they were sent.
	t0 := time.Now()
	n := min(len(ops), 2000)
	for _, op := range ops[:n] {
		desc.Parse(w.inputs[op.input].text)
	}
	m["desc.parse_ms"] = metric{ms(time.Since(t0)) / float64(max(n, 1)), "ms"}
}

func (w *serveWorkload) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if w.hs != nil {
		if err := w.hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: listener shutdown: %v\n", err)
		}
		<-w.served
	}
	if w.srv != nil {
		if err := w.srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: server shutdown: %v\n", err)
		}
	}
	if w.transport != nil {
		w.transport.CloseIdleConnections()
	}
}
