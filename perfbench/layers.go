package main

// perLayer declares every per-layer metric a traced run prints; each
// workload fills the layers it exercises. Layers are named after the
// repository's modules. README.md says which end-to-end metric each
// should move, on which workload.
var perLayer = []struct{ name, unit string }{
	{"desc.parse_ms", "ms"},
	{"core.pass_ms", "ms"},
	{"core.alloc_mb", "MB"},
	{"core.cells_generated", "count"},
	{"core.stretches_applied", "count"},
	{"decoder.pass_ms", "ms"},
	{"decoder.alloc_mb", "MB"},
	{"decoder.pla_terms_before", "count"},
	{"decoder.pla_terms_after", "count"},
	{"pads.pass_ms", "ms"},
	{"pads.alloc_mb", "MB"},
	{"pads.compile_share", "ratio"},
	{"route.cells_expanded", "count"},
	{"route.nets", "count"},
	{"route.conflicts", "count"},
	{"route.retries", "count"},
	{"route.frontier_peak", "count"},
	{"route.conflict_ratio", "ratio"},
	{"reps.pass_ms", "ms"},
	{"reps.alloc_mb", "MB"},
	{"cif.write_ms", "ms"},
	{"cif.bytes", "bytes"},
	{"server.hit_ms_p50", "ms"},
	{"server.hit_ms_p90", "ms"},
	{"server.cold_ms_p50", "ms"},
	{"server.cold_ms_p90", "ms"},
	{"server.edit_ms_p50", "ms"},
	{"server.edit_ms_p90", "ms"},
	{"server.verify_ms_p50", "ms"},
	{"server.verify_ms_p90", "ms"},
	{"server.rejected", "count"},
	{"server.errors", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.evictions", "count"},
	{"incr.hit_ratio", "ratio"},
	{"incr.invalidations", "count"},
	{"scenario.vectors", "count"},
	{"scenario.grade_ms", "ms"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms_per_op", "ms"},
	{"trace.overhead_pct", "%"},
}

var layerUnit = func() map[string]string {
	m := make(map[string]string, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = l.unit
	}
	return m
}()
