package main

import "repro/internal/core"

// endToEndUnits lists every end-to-end metric with its unit; an untraced
// run reports all of them.
var endToEndUnits = map[string]string{
	"setup_s":           "s",
	"explore_s":         "s",
	"runs_per_s":        "runs/s",
	"run_latency_p50_s": "s",
	"hypervolume":       "1",
	"peak_rss_mb":       "MB",
}

// traceUnits lists what a traced run reports about the tracing itself: the
// traced round time, its excess over the untraced round on the same
// inputs, and the span count.
var traceUnits = map[string]string{
	"trace.explore_s":  "s",
	"trace.overhead_s": "s",
	"trace.spans":      "count",
}

// layerUnits lists every per-layer metric with its unit. Each traced run
// reports all of them; a layer the workload does not go through reads 0.
var layerUnits = map[string]string{
	"slambench.kfusion_evals":        "count",
	"slambench.kfusion_eval_s":       "s",
	"slambench.elasticfusion_evals":  "count",
	"slambench.elasticfusion_eval_s": "s",
	"slambench.penalized":            "count",
	"sensor.dataset_s":               "s",
	"core.fit_s":                     "s",
	"core.encode_s":                  "s",
	"core.predict_2obj_s":            "s",
	"core.predict_3obj_s":            "s",
	"core.select_s":                  "s",
	"core.pool_points":               "count",
	"core.predicted_front_points":    "count",
	"core.eval_wall_s":               "s",
	"core.eval_parallelism":          "ratio",
	"core.cache_hits":                "count",
	"core.cache_misses":              "count",
	"journal.appends":                "count",
	"journal.append_s":               "s",
	"journal.bytes":                  "bytes",
	"server.admit_ms_p50":            "ms",
	"sched.wait_ms_p50":              "ms",
	"sched.merged_calls":             "count",
	"sched.deduped_configs":          "count",
	"worker.requests":                "count",
	"worker.rtt_ms_p50":              "ms",
	"worker.compute_s":               "s",
	"worker.wire_s":                  "s",
	"worker.request_bytes":           "bytes",
	"worker.response_bytes":          "bytes",
}

// layerMetrics returns every per-layer metric set from vals, 0 where vals
// has none.
func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{vals[name], unit}
	}
	return out
}

// engineLayers sums the engine's own phase timings, which only
// OnIteration can see, over a set of iteration reports.
func engineLayers(vals map[string]float64, objectives int, phases []core.IterationStats) {
	predict := "core.predict_2obj_s"
	if objectives >= 3 {
		predict = "core.predict_3obj_s"
	}
	for _, ph := range phases {
		vals["core.fit_s"] += ph.FitTime.Seconds()
		vals["core.encode_s"] += ph.EncodeTime.Seconds()
		vals[predict] += ph.PredictTime.Seconds()
		vals["core.eval_wall_s"] += ph.EvalTime.Seconds()
		vals["core.predicted_front_points"] += float64(ph.PredictedFrontSize)
		vals["core.cache_hits"] += float64(ph.CacheHits)
		vals["core.cache_misses"] += float64(ph.CacheMisses)
	}
}

// inProcessLayers derives the core and journal metrics of traced
// in-process explorations.
func inProcessLayers(tr *tracer, rounds []roundResult, evalSpans ...string) map[string]float64 {
	vals := map[string]float64{}
	busy := 0.0
	for _, name := range evalSpans {
		busy += sum(tr.named(name))
	}
	for _, r := range rounds {
		vals["journal.bytes"] += float64(r.journalBytes)
		for _, x := range r.xs {
			engineLayers(vals, x.opts.Objectives, x.phases)
			vals["core.pool_points"] += float64(x.poolPoints)
		}
	}
	if vals["core.eval_wall_s"] > 0 {
		vals["core.eval_parallelism"] = busy / vals["core.eval_wall_s"]
	}
	vals["core.select_s"] = sum(tr.named("core.select"))
	appends := tr.named("journal.append")
	vals["journal.appends"] = float64(len(appends))
	vals["journal.append_s"] = sum(appends)
	return vals
}
