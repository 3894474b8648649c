package server

import (
	"expvar"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"bristleblocks/internal/cache"
	"bristleblocks/internal/core"
	"bristleblocks/internal/geom"
	"bristleblocks/internal/obs/prom"
	"bristleblocks/internal/obs/rtm"
	"bristleblocks/internal/scenario"
	"bristleblocks/internal/trace"
)

// metrics is one server's expvar set. The vars live in a per-server
// expvar.Map rather than the process-global registry so tests (and a
// process embedding several servers) never collide on Publish; /debug/vars
// renders the map, which serializes to the standard expvar JSON shape. The
// same counters render in Prometheus text format on GET /metrics via
// writeProm.
type metrics struct {
	vars *expvar.Map

	requests        *expvar.Int
	inFlight        *expvar.Int
	compiles        *expvar.Int
	cacheServed     *expvar.Int
	rejected        *expvar.Int
	timeouts        *expvar.Int
	badSpecs        *expvar.Int
	compileErrors   *expvar.Int
	sessionCompiles *expvar.Int

	// Batch endpoint (/compile/batch): requests, specs received, per-item
	// errors streamed, and items the coordinator routed to a worker.
	batchRequests *expvar.Int
	batchSpecs    *expvar.Int
	batchErrors   *expvar.Int
	batchRemote   *expvar.Int
	// Coordinator routing: compiles forwarded to a worker, re-route hops
	// after a worker failed or shed, compiles that fell back to this node,
	// and load polls that failed.
	coordRouted     *expvar.Int
	coordReroutes   *expvar.Int
	coordFallbacks  *expvar.Int
	coordPollErrors *expvar.Int
	// Shard protocol serving side (/cache/): peer lookups answered, peer
	// results stored, and malformed or mis-keyed PUTs rejected.
	shardServed  *expvar.Int
	shardStored  *expvar.Int
	shardBadPuts *expvar.Int

	// Compiler-core build counters, accumulated over cold compiles: what
	// the compiler built, not just how long it took.
	coreCells       *expvar.Int
	coreStretches   *expvar.Int
	coreStretchDist *expvar.Int
	coreBusBreaks   *expvar.Int
	// Last-cold-compile gauges.
	plaTermsLast *expvar.Int
	pitchLast    *expvar.Float
	// PLA minimization: last-compile before/after gauges plus accumulated
	// terms-merged and area-saved counters across cold compiles.
	plaTermsBeforeLast *expvar.Int
	plaTermsAfterLast  *expvar.Int
	plaTermsMerged     *expvar.Int
	plaAreaSaved       *expvar.Float
	// Per-compile verifier (logic-vs-simulation on every cold compile).
	verifyRuns       *expvar.Int
	verifyViolations *expvar.Int
	// Scenario grading (/verify): request and vector tallies plus the
	// last request's worst grade.
	scenarioRequests   *expvar.Int
	scenarioBadVectors *expvar.Int
	scenarioGraded     *expvar.Int
	scenarioVectors    *expvar.Int
	scenarioFailed     *expvar.Int
	scenarioGradeLast  *expvar.Int
	// Per-pass wall-clock rollups in microseconds (counter semantics: total
	// compile time spent per pass since start).
	passUSCore    *expvar.Int
	passUSControl *expvar.Int
	passUSPads    *expvar.Int
	// Pass 3 routing counters, accumulated over cold compiles: how hard the
	// pad router worked, not just how long. routeFrontierPeak is a
	// high-water gauge (widest search frontier any compile reached); the
	// max update is a CAS loop because parallel compile workers report
	// concurrently.
	routeNets         *expvar.Int
	routeCells        *expvar.Int
	routeFrontierPeak atomic.Int64
	// Per-pass allocation attribution, accumulated over cold compiles:
	// objects and bytes each pass allocated, from the runtime's cumulative
	// allocation counters bracketing each pass (see core.CompileAllocs).
	allocsCore     *expvar.Int
	allocsControl  *expvar.Int
	allocsPads     *expvar.Int
	allocsReps     *expvar.Int
	allocBCore     *expvar.Int
	allocBControl  *expvar.Int
	allocBPads     *expvar.Int
	allocBReps     *expvar.Int
	allocsCompiles *expvar.Int // whole-compile totals, for attribution ratio
	allocBCompiles *expvar.Int

	// rt throttles runtime/metrics reads behind the scrape path: however
	// hot the scraper runs, the runtime is read at most once per second.
	rt *rtm.Sampler

	passCore     *histogram
	passControl  *histogram
	passPads     *histogram
	genElement   *histogram
	request      *histogram
	verifyHist   *histogram
	scenarioHist *histogram
}

func newMetrics(s *Server) *metrics {
	m := &metrics{
		vars:               new(expvar.Map).Init(),
		requests:           new(expvar.Int),
		inFlight:           new(expvar.Int),
		compiles:           new(expvar.Int),
		cacheServed:        new(expvar.Int),
		rejected:           new(expvar.Int),
		timeouts:           new(expvar.Int),
		badSpecs:           new(expvar.Int),
		compileErrors:      new(expvar.Int),
		sessionCompiles:    new(expvar.Int),
		batchRequests:      new(expvar.Int),
		batchSpecs:         new(expvar.Int),
		batchErrors:        new(expvar.Int),
		batchRemote:        new(expvar.Int),
		coordRouted:        new(expvar.Int),
		coordReroutes:      new(expvar.Int),
		coordFallbacks:     new(expvar.Int),
		coordPollErrors:    new(expvar.Int),
		shardServed:        new(expvar.Int),
		shardStored:        new(expvar.Int),
		shardBadPuts:       new(expvar.Int),
		coreCells:          new(expvar.Int),
		coreStretches:      new(expvar.Int),
		coreStretchDist:    new(expvar.Int),
		coreBusBreaks:      new(expvar.Int),
		plaTermsLast:       new(expvar.Int),
		pitchLast:          new(expvar.Float),
		plaTermsBeforeLast: new(expvar.Int),
		plaTermsAfterLast:  new(expvar.Int),
		plaTermsMerged:     new(expvar.Int),
		plaAreaSaved:       new(expvar.Float),
		verifyRuns:         new(expvar.Int),
		verifyViolations:   new(expvar.Int),
		scenarioRequests:   new(expvar.Int),
		scenarioBadVectors: new(expvar.Int),
		scenarioGraded:     new(expvar.Int),
		scenarioVectors:    new(expvar.Int),
		scenarioFailed:     new(expvar.Int),
		scenarioGradeLast:  new(expvar.Int),
		passUSCore:         new(expvar.Int),
		passUSControl:      new(expvar.Int),
		passUSPads:         new(expvar.Int),
		routeNets:          new(expvar.Int),
		routeCells:         new(expvar.Int),
		allocsCore:         new(expvar.Int),
		allocsControl:      new(expvar.Int),
		allocsPads:         new(expvar.Int),
		allocsReps:         new(expvar.Int),
		allocBCore:         new(expvar.Int),
		allocBControl:      new(expvar.Int),
		allocBPads:         new(expvar.Int),
		allocBReps:         new(expvar.Int),
		allocsCompiles:     new(expvar.Int),
		allocBCompiles:     new(expvar.Int),
		rt:                 rtm.NewSampler(time.Second),
		passCore:           newHistogram(),
		passControl:        newHistogram(),
		passPads:           newHistogram(),
		genElement:         newHistogram(),
		request:            newHistogram(),
		verifyHist:         newHistogram(),
		scenarioHist:       newHistogram(),
	}
	m.vars.Set("requests", m.requests)
	m.vars.Set("in_flight", m.inFlight)
	m.vars.Set("compiles", m.compiles)
	m.vars.Set("cache_served", m.cacheServed)
	m.vars.Set("rejected_queue_full", m.rejected)
	m.vars.Set("timeouts", m.timeouts)
	m.vars.Set("bad_specs", m.badSpecs)
	m.vars.Set("compile_errors", m.compileErrors)
	m.vars.Set("batch_requests", m.batchRequests)
	m.vars.Set("batch_specs", m.batchSpecs)
	m.vars.Set("batch_errors", m.batchErrors)
	m.vars.Set("batch_remote", m.batchRemote)
	m.vars.Set("coord_routed", m.coordRouted)
	m.vars.Set("coord_reroutes", m.coordReroutes)
	m.vars.Set("coord_local_fallbacks", m.coordFallbacks)
	m.vars.Set("coord_poll_errors", m.coordPollErrors)
	m.vars.Set("shard_served", m.shardServed)
	m.vars.Set("shard_stored", m.shardStored)
	m.vars.Set("shard_bad_puts", m.shardBadPuts)
	m.vars.Set("peer", expvar.Func(func() any {
		pt := s.cache.Peers()
		if pt == nil {
			return map[string]any{"nodes": 0}
		}
		pc := pt.Counters()
		return map[string]any{
			"nodes":      pc.Nodes,
			"fetches":    pc.Fetches,
			"hits":       pc.Hits,
			"misses":     pc.Misses,
			"errors":     pc.Errors,
			"timeouts":   pc.Timeouts,
			"puts":       pc.Puts,
			"put_errors": pc.PutErrors,
		}
	}))
	m.vars.Set("core_cells_generated", m.coreCells)
	m.vars.Set("core_stretches_applied", m.coreStretches)
	m.vars.Set("core_stretch_distance_lambda", m.coreStretchDist)
	m.vars.Set("core_bus_breaks", m.coreBusBreaks)
	m.vars.Set("core_pla_terms_last", m.plaTermsLast)
	m.vars.Set("core_pitch_lambda_last", m.pitchLast)
	m.vars.Set("pla_terms_before_last", m.plaTermsBeforeLast)
	m.vars.Set("pla_terms_after_last", m.plaTermsAfterLast)
	m.vars.Set("pla_terms_merged", m.plaTermsMerged)
	m.vars.Set("pla_area_saved_lambda2", m.plaAreaSaved)
	m.vars.Set("verify_runs", m.verifyRuns)
	m.vars.Set("verify_violations", m.verifyViolations)
	m.vars.Set("scenario_requests", m.scenarioRequests)
	m.vars.Set("scenario_bad_vectors", m.scenarioBadVectors)
	m.vars.Set("scenario_graded", m.scenarioGraded)
	m.vars.Set("scenario_vectors", m.scenarioVectors)
	m.vars.Set("scenario_failed_vectors", m.scenarioFailed)
	m.vars.Set("scenario_grade_percent_last", m.scenarioGradeLast)
	m.vars.Set("pass_us_core", m.passUSCore)
	m.vars.Set("pass_us_control", m.passUSControl)
	m.vars.Set("pass_us_pads", m.passUSPads)
	m.vars.Set("route_nets", m.routeNets)
	m.vars.Set("route_cells_expanded", m.routeCells)
	m.vars.Set("pass_allocs_core", m.allocsCore)
	m.vars.Set("pass_allocs_control", m.allocsControl)
	m.vars.Set("pass_allocs_pads", m.allocsPads)
	m.vars.Set("pass_allocs_reps", m.allocsReps)
	m.vars.Set("pass_alloc_bytes_core", m.allocBCore)
	m.vars.Set("pass_alloc_bytes_control", m.allocBControl)
	m.vars.Set("pass_alloc_bytes_pads", m.allocBPads)
	m.vars.Set("pass_alloc_bytes_reps", m.allocBReps)
	m.vars.Set("compile_allocs_total", m.allocsCompiles)
	m.vars.Set("compile_alloc_bytes_total", m.allocBCompiles)
	m.vars.Set("route_frontier_peak", expvar.Func(func() any { return m.routeFrontierPeak.Load() }))
	m.vars.Set("queue_depth", expvar.Func(func() any { return len(s.jobs) }))
	m.vars.Set("queue_capacity", expvar.Func(func() any { return cap(s.jobs) }))
	m.vars.Set("workers", expvar.Func(func() any { return s.cfg.Workers }))
	m.vars.Set("flight_recorded", expvar.Func(func() any { return s.flight.Total() }))
	m.vars.Set("session_compiles", m.sessionCompiles)
	m.vars.Set("incr", expvar.Func(func() any {
		c, created, expired, active := s.sessions.totals()
		return map[string]any{
			"hits":             c.Hits,
			"misses":           c.Misses,
			"evictions":        c.Evictions,
			"invalidations":    c.Invalidations,
			"entries":          c.Entries,
			"bytes":            c.Bytes,
			"sessions_active":  active,
			"sessions_created": created,
			"sessions_expired": expired,
		}
	}))
	m.vars.Set("cache", expvar.Func(func() any {
		c := s.cache.Counters()
		return map[string]any{
			"hits":      c.Hits,
			"misses":    c.Misses,
			"evictions": c.Evictions,
			"disk_hits": c.DiskHits,
			"peer_hits": c.PeerHits,
			"entries":   c.Entries,
			"bytes":     c.Bytes,
			"hit_ratio": s.cache.HitRatio(),
		}
	}))
	m.vars.Set("latency_ms_pass_core", m.passCore)
	m.vars.Set("latency_ms_pass_control", m.passControl)
	m.vars.Set("latency_ms_pass_pads", m.passPads)
	m.vars.Set("latency_ms_gen_element", m.genElement)
	m.vars.Set("latency_ms_request", m.request)
	m.vars.Set("latency_ms_verify", m.verifyHist)
	m.vars.Set("latency_ms_scenario_grade", m.scenarioHist)
	return m
}

// observeScenarios records one /verify grading pass: its latency, the
// scenario and vector tallies, and the request's worst grade as a gauge.
func (m *metrics) observeScenarios(d time.Duration, verdicts []scenario.Verdict) {
	m.scenarioGraded.Add(int64(len(verdicts)))
	worst := 100
	for i := range verdicts {
		v := &verdicts[i]
		m.scenarioVectors.Add(int64(v.Vectors))
		m.scenarioFailed.Add(int64(v.Vectors - v.Passed))
		if v.GradePercent < worst {
			worst = v.GradePercent
		}
	}
	m.scenarioGradeLast.Set(int64(worst))
	m.scenarioHist.observe(float64(d.Microseconds()) / 1e3)
}

// observeSpans exports a cold compile's trace into the histograms: every
// Pass 1 element-generation span feeds the per-element latency
// distribution, the fan-out hot loop the pipeline was parallelized around.
func (m *metrics) observeSpans(spans []trace.Span) {
	for _, s := range spans {
		if s.Pass == trace.PassCore && strings.HasPrefix(s.Name, "gen.") {
			m.genElement.observe(float64(s.DurUS) / 1e3)
		}
	}
}

// observePasses records a cold compile's per-pass wall-clock.
func (m *metrics) observePasses(t cache.TimesUS) {
	m.passCore.observe(float64(t.Core) / 1e3)
	m.passControl.observe(float64(t.Control) / 1e3)
	m.passPads.observe(float64(t.Pads) / 1e3)
	m.passUSCore.Add(t.Core)
	m.passUSControl.Add(t.Control)
	m.passUSPads.Add(t.Pads)
}

// observeStats accumulates a cold compile's build counters and refreshes
// the last-compile gauges.
func (m *metrics) observeStats(st core.Stats) {
	m.coreCells.Add(int64(st.CellsGenerated))
	m.coreStretches.Add(int64(st.StretchesApplied))
	m.coreStretchDist.Add(int64(st.StretchDistanceLambda))
	m.coreBusBreaks.Add(int64(st.BusBreaks))
	m.plaTermsLast.Set(int64(st.PLATerms))
	m.pitchLast.Set(geom.InLambda(st.Pitch))
	m.plaTermsBeforeLast.Set(int64(st.PlaTermsBefore))
	m.plaTermsAfterLast.Set(int64(st.PlaTermsAfter))
	m.plaTermsMerged.Add(int64(st.PlaTermsBefore - st.PlaTermsAfter))
	m.plaAreaSaved.Add(st.PlaAreaSavedLambda2)
	m.routeNets.Add(st.RouteNets)
	m.routeCells.Add(st.RouteCellsExpanded)
	for {
		cur := m.routeFrontierPeak.Load()
		if st.RouteFrontierPeak <= cur || m.routeFrontierPeak.CompareAndSwap(cur, st.RouteFrontierPeak) {
			break
		}
	}
}

// observeAllocs accumulates a cold compile's per-pass allocation
// attribution. Counts are process-cumulative runtime counters bracketing
// each pass, so concurrent compiles bleed into each other's buckets —
// the totals stay honest in aggregate, which is what a rate() over these
// families answers.
func (m *metrics) observeAllocs(a core.CompileAllocs) {
	m.allocsCore.Add(int64(a.Core.Objects))
	m.allocsControl.Add(int64(a.Control.Objects))
	m.allocsPads.Add(int64(a.Pads.Objects))
	m.allocsReps.Add(int64(a.Reps.Objects))
	m.allocBCore.Add(int64(a.Core.Bytes))
	m.allocBControl.Add(int64(a.Control.Bytes))
	m.allocBPads.Add(int64(a.Pads.Bytes))
	m.allocBReps.Add(int64(a.Reps.Bytes))
	m.allocsCompiles.Add(int64(a.Total.Objects))
	m.allocBCompiles.Add(int64(a.Total.Bytes))
}

// observeVerify records one per-compile verifier run: its latency and any
// violations it surfaced.
func (m *metrics) observeVerify(d time.Duration, violations int) {
	m.verifyRuns.Add(1)
	m.verifyViolations.Add(int64(violations))
	m.verifyHist.observe(float64(d.Microseconds()) / 1e3)
}

// observeRequest records end-to-end request latency. Every terminal path
// reports here — served, rejected, shed, and failed requests alike — so
// the histogram shows the latency clients saw, not just the flattering
// subset (a 503 answered in 50µs and a hit answered in 2ms are both
// facts about the service).
func (m *metrics) observeRequest(d time.Duration) {
	m.request.observe(float64(d.Microseconds()) / 1e3)
}

// writeProm renders the whole metric set as one Prometheus text exposition
// page for GET /metrics.
func (m *metrics) writeProm(w io.Writer, s *Server) error {
	p := prom.NewWriter(w)
	p.Counter("bbd_requests_total", "Compile requests received (all terminal outcomes).", float64(m.requests.Value()))
	p.Counter("bbd_compiles_total", "Cold compiles that ran the three passes.", float64(m.compiles.Value()))
	p.Counter("bbd_cache_served_total", "Requests answered from the compile cache.", float64(m.cacheServed.Value()))
	p.Counter("bbd_rejected_total", "Requests shed with 503 because the queue was full or draining.", float64(m.rejected.Value()))
	p.Counter("bbd_timeouts_total", "Requests that exceeded the compile deadline.", float64(m.timeouts.Value()))
	p.Counter("bbd_bad_specs_total", "Requests whose chip description failed to parse.", float64(m.badSpecs.Value()))
	p.Counter("bbd_compile_errors_total", "Compiles that failed inside the three passes.", float64(m.compileErrors.Value()))

	p.Gauge("bbd_in_flight", "Compiles currently occupying a worker.", float64(m.inFlight.Value()))
	p.Gauge("bbd_queue_depth", "Requests waiting for a worker.", float64(len(s.jobs)))
	p.Gauge("bbd_queue_capacity", "Bound on requests waiting for a worker.", float64(cap(s.jobs)))
	p.Gauge("bbd_workers", "Worker pool size.", float64(s.cfg.Workers))

	c := s.cache.Counters()
	p.Counter("bbd_cache_hits_total", "Compile cache hits (memory, disk, or peer).", float64(c.Hits))
	p.Counter("bbd_cache_misses_total", "Compile cache misses.", float64(c.Misses))
	p.Counter("bbd_cache_evictions_total", "Results evicted from the in-memory cache layer.", float64(c.Evictions))
	p.Counter("bbd_cache_disk_hits_total", "Lookups answered by the disk layer.", float64(c.DiskHits))
	p.Counter("bbd_cache_peer_hits_total", "Lookups answered by another node's cache shard.", float64(c.PeerHits))
	p.Gauge("bbd_cache_entries", "Results resident in the in-memory cache layer.", float64(c.Entries))
	p.Gauge("bbd_cache_bytes", "Bytes charged against the in-memory cache budget.", float64(c.Bytes))
	p.Gauge("bbd_cache_hit_ratio", "hits/(hits+misses) since start.", s.cache.HitRatio())

	// Farm peer tier (client side of the shard protocol). The families are
	// always present — zero outside a farm — so dashboards and the smoke
	// checks never see a missing series.
	var pc cache.PeerCounters
	if pt := s.cache.Peers(); pt != nil {
		pc = pt.Counters()
	}
	p.Gauge("bbd_peer_nodes", "Cache shard ring size, self included (0 = single-node).", float64(pc.Nodes))
	p.Counter("bbd_peer_fetches_total", "Cache lookups sent to a key's owning peer.", float64(pc.Fetches))
	p.Counter("bbd_peer_hits_total", "Peer fetches answered with a result.", float64(pc.Hits))
	p.Counter("bbd_peer_misses_total", "Peer fetches answered with a clean 404.", float64(pc.Misses))
	p.Counter("bbd_peer_errors_total", "Peer fetches that failed (unreachable, bad status, corrupt body).", float64(pc.Errors))
	p.Counter("bbd_peer_timeouts_total", "Peer fetches that exceeded the per-peer timeout.", float64(pc.Timeouts))
	p.Counter("bbd_peer_puts_total", "Results pushed to their owning peer.", float64(pc.Puts))
	p.Counter("bbd_peer_put_errors_total", "Peer pushes that failed (result stayed local-only).", float64(pc.PutErrors))
	// Serving side of the shard protocol (/cache/ on this node).
	p.Counter("bbd_peer_shard_served_total", "Peer lookups this node answered from its local layers.", float64(m.shardServed.Value()))
	p.Counter("bbd_peer_shard_stored_total", "Peer results this node stored into its local layers.", float64(m.shardStored.Value()))
	p.Counter("bbd_peer_shard_bad_puts_total", "Peer PUTs rejected as malformed or mis-keyed.", float64(m.shardBadPuts.Value()))

	// Batch endpoint.
	p.Counter("bbd_batch_requests_total", "POST /compile/batch requests received.", float64(m.batchRequests.Value()))
	p.Counter("bbd_batch_specs_total", "Specs received across batch requests.", float64(m.batchSpecs.Value()))
	p.Counter("bbd_batch_errors_total", "Batch items that streamed an error line.", float64(m.batchErrors.Value()))
	p.Counter("bbd_batch_remote_total", "Batch items the coordinator routed to a worker.", float64(m.batchRemote.Value()))

	// Coordinator routing.
	p.Counter("bbd_coord_routed_total", "Cold compiles forwarded to a worker.", float64(m.coordRouted.Value()))
	p.Counter("bbd_coord_reroutes_total", "Re-route hops after a worker failed or shed.", float64(m.coordReroutes.Value()))
	p.Counter("bbd_coord_local_fallbacks_total", "Cold compiles answered locally because no worker was reachable.", float64(m.coordFallbacks.Value()))
	p.Counter("bbd_coord_poll_errors_total", "Worker load polls that failed (worker marked dead briefly).", float64(m.coordPollErrors.Value()))
	if s.coord != nil {
		p.Gauge("bbd_coord_workers", "Workers this coordinator routes across.", float64(len(s.coord.workers)))
		p.Gauge("bbd_coord_dead_workers", "Workers currently sitting out after a failure.", float64(s.coord.deadWorkers()))
	}

	// Incremental artifact stores: every session's store plus retired
	// sessions' totals, so the counters are monotonic across churn.
	ic, created, expired, active := s.sessions.totals()
	p.Counter("bbd_incr_session_compiles_total", "Compiles answered through a session's warm artifact store.", float64(m.sessionCompiles.Value()))
	p.Counter("bbd_incr_hits_total", "Artifact-store hits across all sessions (live and retired).", float64(ic.Hits))
	p.Counter("bbd_incr_misses_total", "Artifact-store misses across all sessions (live and retired).", float64(ic.Misses))
	p.Counter("bbd_incr_evictions_total", "Artifacts dropped by session LRU byte budgets.", float64(ic.Evictions))
	p.Counter("bbd_incr_invalidations_total", "Artifacts displaced by spec edits (new variant of the same slot).", float64(ic.Invalidations))
	p.Counter("bbd_incr_sessions_created_total", "Edit sessions ever opened.", float64(created))
	p.Counter("bbd_incr_sessions_expired_total", "Edit sessions retired by TTL, LRU displacement, or DELETE.", float64(expired))
	p.Gauge("bbd_incr_sessions_active", "Edit sessions currently live.", float64(active))
	p.Gauge("bbd_incr_entries", "Artifacts resident across live session stores.", float64(ic.Entries))
	p.Gauge("bbd_incr_bytes", "Bytes charged across live session store budgets.", float64(ic.Bytes))
	if ic.Hits+ic.Misses > 0 {
		p.Gauge("bbd_incr_hit_ratio", "Artifact-store hits/(hits+misses) across all sessions.", float64(ic.Hits)/float64(ic.Hits+ic.Misses))
	} else {
		p.Gauge("bbd_incr_hit_ratio", "Artifact-store hits/(hits+misses) across all sessions.", 0)
	}

	// Compiler-core gauges: what the compiler built.
	p.Counter("bbd_core_cells_generated_total", "Distinct cell designs generated by Pass 1 across cold compiles.", float64(m.coreCells.Value()))
	p.Counter("bbd_core_stretches_total", "Cells whose geometry the pitch fit moved, across cold compiles.", float64(m.coreStretches.Value()))
	p.Counter("bbd_core_stretch_distance_lambda_total", "Total lambda of stretch inserted across cold compiles.", float64(m.coreStretchDist.Value()))
	p.Counter("bbd_core_bus_breaks_total", "Bus isolation columns inserted across cold compiles.", float64(m.coreBusBreaks.Value()))
	p.Gauge("bbd_core_pla_terms", "PLA terms of the most recent cold compile.", float64(m.plaTermsLast.Value()))
	p.Gauge("bbd_core_pitch_lambda", "Row pitch (lambda) of the most recent cold compile.", m.pitchLast.Value())

	// PLA minimization: what Pass 2's Espresso-style pass bought.
	p.Gauge("bbd_pla_terms_before", "Decoder PLA terms before optimization, most recent cold compile.", float64(m.plaTermsBeforeLast.Value()))
	p.Gauge("bbd_pla_terms_after", "Decoder PLA terms after optimization, most recent cold compile.", float64(m.plaTermsAfterLast.Value()))
	p.Counter("bbd_pla_terms_merged_total", "PLA terms eliminated by decoder optimization across cold compiles.", float64(m.plaTermsMerged.Value()))
	p.Counter("bbd_pla_area_saved_lambda2_total", "PLA area (lambda^2) saved by decoder optimization across cold compiles.", m.plaAreaSaved.Value())

	// Per-compile verifier.
	p.Counter("bbd_verify_runs_total", "Logic-vs-simulation verifier runs (one per cold compile unless disabled).", float64(m.verifyRuns.Value()))
	p.Counter("bbd_verify_violations_total", "Invariant violations the per-compile verifier surfaced.", float64(m.verifyViolations.Value()))

	// Scenario grading (/verify).
	p.Counter("bbd_scenario_requests_total", "POST /verify requests received (all terminal outcomes).", float64(m.scenarioRequests.Value()))
	p.Counter("bbd_scenario_bad_vectors_total", "Verify requests rejected for a malformed body or vector file.", float64(m.scenarioBadVectors.Value()))
	p.Counter("bbd_scenario_graded_total", "Scenarios graded across verify requests.", float64(m.scenarioGraded.Value()))
	p.Counter("bbd_scenario_vectors_total", "Vectors graded across verify requests.", float64(m.scenarioVectors.Value()))
	p.Counter("bbd_scenario_failed_vectors_total", "Vectors that failed their expectations across verify requests.", float64(m.scenarioFailed.Value()))
	p.Gauge("bbd_scenario_grade_percent_last", "Worst scenario grade of the most recent verify request.", float64(m.scenarioGradeLast.Value()))

	// Pass 3 routing counters: the pad router's work.
	p.Counter("bbd_route_nets_total", "Routing units routed by Pass 3 across cold compiles (all rip-up attempts).", float64(m.routeNets.Value()))
	p.Counter("bbd_route_cells_expanded_total", "Grid cells the route searches expanded across cold compiles.", float64(m.routeCells.Value()))
	p.Gauge("bbd_route_frontier_peak", "Widest search frontier any cold compile's router reached.", float64(m.routeFrontierPeak.Load()))

	// Per-pass span rollups: cumulative seconds of compile time per pass.
	p.CounterVec("bbd_pass_seconds_total", "Cumulative wall-clock spent per compiler pass.", "pass", map[string]float64{
		"core":    float64(m.passUSCore.Value()) / 1e6,
		"control": float64(m.passUSControl.Value()) / 1e6,
		"pads":    float64(m.passUSPads.Value()) / 1e6,
	})

	// Per-pass allocation attribution: where the compiler's allocations
	// come from, pass by pass, across cold compiles.
	p.CounterVec("bbd_pass_allocs_total", "Objects allocated per compiler pass across cold compiles.", "pass", map[string]float64{
		"core":    float64(m.allocsCore.Value()),
		"control": float64(m.allocsControl.Value()),
		"pads":    float64(m.allocsPads.Value()),
		"reps":    float64(m.allocsReps.Value()),
	})
	p.CounterVec("bbd_pass_alloc_bytes_total", "Bytes allocated per compiler pass across cold compiles.", "pass", map[string]float64{
		"core":    float64(m.allocBCore.Value()),
		"control": float64(m.allocBControl.Value()),
		"pads":    float64(m.allocBPads.Value()),
		"reps":    float64(m.allocBReps.Value()),
	})
	p.Counter("bbd_compile_allocs_total", "Objects allocated across whole cold compiles (attribution denominator).", float64(m.allocsCompiles.Value()))
	p.Counter("bbd_compile_alloc_bytes_total", "Bytes allocated across whole cold compiles (attribution denominator).", float64(m.allocBCompiles.Value()))

	// Go runtime telemetry, sampled at most once per second however hot
	// the scraper runs.
	rt := m.rt.Snapshot()
	p.Gauge("bbd_runtime_heap_bytes", "Bytes occupied by live and unswept heap objects.", float64(rt.HeapBytes))
	p.Gauge("bbd_runtime_total_bytes", "All memory mapped by the Go runtime.", float64(rt.TotalBytes))
	p.Gauge("bbd_runtime_heap_objects", "Live and unswept heap object count.", float64(rt.HeapObjects))
	p.Gauge("bbd_runtime_heap_goal_bytes", "GC pacer's current heap-size goal.", float64(rt.HeapGoal))
	p.Gauge("bbd_runtime_goroutines", "Live goroutine count.", float64(rt.Goroutines))
	p.Counter("bbd_runtime_gc_cycles_total", "Completed GC cycles since process start.", float64(rt.GCCycles))
	p.Counter("bbd_runtime_alloc_objects_total", "Objects allocated since process start (process-wide).", float64(rt.AllocObjects))
	p.Counter("bbd_runtime_alloc_bytes_total", "Bytes allocated since process start (process-wide).", float64(rt.AllocBytes))
	for _, rh := range []struct {
		name, help string
		h          rtm.Hist
	}{
		{"bbd_runtime_gc_pause_seconds", "Stop-the-world GC pause durations.", rt.GCPause},
		{"bbd_runtime_sched_latency_seconds", "Time goroutines spend runnable before running.", rt.SchedLatency},
	} {
		counts := make([]int64, len(rh.h.Counts))
		for i, c := range rh.h.Counts {
			counts[i] = int64(c)
		}
		if len(counts) == 0 {
			// The toolchain didn't export the histogram; emit an empty one
			// so the family is always present for scrapers.
			counts = make([]int64, len(rh.h.Bounds)+1)
		}
		bounds := rh.h.Bounds
		if bounds == nil {
			bounds = []float64{}
		}
		p.Histogram(rh.name, rh.help, bounds, counts, rh.h.Sum)
	}

	// SLO error budget over compile-path outcomes, two burn-rate horizons.
	slo := s.slo.Snapshot()
	p.Gauge("bbd_slo_availability_target", "Configured availability objective (fraction of eligible requests).", slo.AvailabilityTarget)
	p.Gauge("bbd_slo_latency_target", "Configured latency objective (fraction of good requests under threshold).", slo.LatencyTarget)
	p.Gauge("bbd_slo_latency_threshold_ms", "Latency threshold the objective counts against.", float64(slo.LatencyThresholdMS))
	sh, fu := slo.Short, slo.Full
	p.GaugeVec("bbd_slo_availability", "Observed availability over the window (1.0 when idle).", "window",
		map[string]float64{"short": sh.Availability, "full": fu.Availability})
	p.GaugeVec("bbd_slo_availability_burn_rate", "Error-budget burn rate for availability (1.0 = burning exactly the budget).", "window",
		map[string]float64{"short": sh.AvailabilityBurnRate, "full": fu.AvailabilityBurnRate})
	p.GaugeVec("bbd_slo_latency_compliance", "Fraction of good requests under the latency threshold over the window.", "window",
		map[string]float64{"short": sh.LatencyCompliance, "full": fu.LatencyCompliance})
	p.GaugeVec("bbd_slo_latency_burn_rate", "Error-budget burn rate for latency.", "window",
		map[string]float64{"short": sh.LatencyBurnRate, "full": fu.LatencyBurnRate})
	p.GaugeVec("bbd_slo_eligible_requests", "Requests counted against the objectives over the window (client errors excluded).", "window",
		map[string]float64{"short": float64(sh.Eligible), "full": float64(fu.Eligible)})
	p.GaugeVec("bbd_slo_window_seconds", "Window length per horizon.", "window",
		map[string]float64{"short": float64(sh.WindowSeconds), "full": float64(fu.WindowSeconds)})

	p.Gauge("bbd_flight_recorded_total", "Compiles recorded by the flight recorder (including overwritten).", float64(s.flight.Total()))

	for _, h := range []struct {
		name, help string
		h          *histogram
	}{
		{"bbd_pass_core_latency_ms", "Pass 1 (core layout) latency per cold compile.", m.passCore},
		{"bbd_pass_control_latency_ms", "Pass 2 (control design) latency per cold compile.", m.passControl},
		{"bbd_pass_pads_latency_ms", "Pass 3 (pad layout) latency per cold compile.", m.passPads},
		{"bbd_gen_element_latency_ms", "Per-element generation latency inside Pass 1's fan-out.", m.genElement},
		{"bbd_request_latency_ms", "End-to-end request latency, every terminal outcome.", m.request},
		{"bbd_verify_latency_ms", "Per-compile logic-vs-simulation verifier latency.", m.verifyHist},
		{"bbd_scenario_grade_latency_ms", "Scenario grading latency per verify request (grading only, compile excluded).", m.scenarioHist},
	} {
		counts, _, sumMS := h.h.snapshot()
		p.Histogram(h.name, h.help, h.h.bounds, counts, sumMS)
	}
	return p.Err()
}

// histogram is a fixed-bucket latency histogram implementing expvar.Var.
// Buckets are cumulative-style upper bounds in milliseconds, chosen to
// straddle the paper's regime (ms-scale compiles) up to the timeout.
type histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last = overflow
	total  atomic.Int64
	sumUS  atomic.Int64 // sum in microseconds to keep integer atomics
}

func newHistogram() *histogram {
	bounds := []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 10000}
	return &histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

func (h *histogram) observe(ms float64) {
	i := 0
	for i < len(h.bounds) && ms > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	h.sumUS.Add(int64(ms * 1e3))
}

// snapshot copies the per-bucket counts (non-cumulative, overflow last),
// the total observation count, and the sum in milliseconds.
func (h *histogram) snapshot() (counts []int64, total int64, sumMS float64) {
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.total.Load(), float64(h.sumUS.Load()) / 1e3
}

// percentile estimates the q-quantile (0 < q < 1) from the bucket counts
// with linear interpolation inside the covering bucket — the same estimate
// Prometheus's histogram_quantile makes. The overflow bucket clamps to the
// final bound (there is no upper edge to interpolate toward). Returns 0
// with no observations.
func (h *histogram) percentile(q float64) float64 {
	counts, total, _ := h.snapshot()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := float64(0)
	for i, n := range counts {
		prev := cum
		cum += float64(n)
		if cum < rank || n == 0 {
			continue
		}
		if i >= len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		return lo + (h.bounds[i]-lo)*(rank-prev)/float64(n)
	}
	return h.bounds[len(h.bounds)-1]
}

// String renders the histogram as JSON (the expvar.Var contract),
// including interpolated p50/p95/p99 summary fields so a /debug/vars
// scrape answers "how slow" without the reader summing buckets.
func (h *histogram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"count":%d,"sum_ms":%.3f,"p50":%.3f,"p95":%.3f,"p99":%.3f,"buckets":{`,
		h.total.Load(), float64(h.sumUS.Load())/1e3,
		h.percentile(0.50), h.percentile(0.95), h.percentile(0.99))
	for i, b := range h.bounds {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `"le_%g":%d`, b, h.counts[i].Load())
	}
	fmt.Fprintf(&sb, `,"inf":%d}}`, h.counts[len(h.bounds)].Load())
	return sb.String()
}
