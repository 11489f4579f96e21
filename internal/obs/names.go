package obs

// Canonical metric names. They are defined here — not in the packages that
// write them — because readers live elsewhere: the hlscong run report,
// congtop, perfbench and the debug endpoint all key off these strings,
// and a shared constant keeps writer and reader from drifting.
const (
	// MetricStagePrefix prefixes one duration histogram per flow stage:
	// "flow.stage_ms.schedule", ..., "flow.stage_ms.timing" (milliseconds).
	MetricStagePrefix = "flow.stage_ms."
	// MetricFlowRuns counts completed flow runs (cache hits included).
	MetricFlowRuns = "flow.runs"
	// MetricFlowMs is the full-run duration histogram (milliseconds).
	MetricFlowMs = "flow.run_ms"
	// MetricFlowRetries counts failed attempts that were retried.
	MetricFlowRetries = "flow.retries"
	// MetricFlowFaults counts injected stage faults that fired.
	MetricFlowFaults = "flow.faults_injected"

	// MetricCacheHits / Misses / Evictions are the flow cache's counters.
	MetricCacheHits      = "flowcache.hits"
	MetricCacheMisses    = "flowcache.misses"
	MetricCacheEvictions = "flowcache.evictions"

	// MetricStoreHits / Misses / Corrupt / Evictions are the persistent
	// artifact store's counters: disk-tier hits and misses, entries
	// quarantined as corrupt (scan- or read-side), and entries evicted by
	// the byte budget.
	MetricStoreHits      = "store.hit"
	MetricStoreMisses    = "store.miss"
	MetricStoreCorrupt   = "store.corrupt"
	MetricStoreEvictions = "store.evict"

	// MetricPlaceMoves / Accepted count annealing moves proposed/committed.
	MetricPlaceMoves    = "place.moves"
	MetricPlaceAccepted = "place.accepted"
	// MetricPlaceAcceptRate is the per-run accept-rate histogram
	// (RatioBuckets).
	MetricPlaceAcceptRate = "place.accept_rate"

	// MetricRouteIterations is the per-run negotiation-pass histogram
	// (SmallCountBuckets).
	MetricRouteIterations = "route.iterations"
	// MetricRouteOverflow counts tile-direction pairs left above capacity,
	// summed over runs; MetricRouteNonConverged counts the runs.
	MetricRouteOverflow     = "route.overflow_edges"
	MetricRouteNonConverged = "route.nonconverged_runs"

	// MetricBuildFlowRuns counts successful flow executions of dataset
	// builds; MetricBuildModulesFailed the modules skipped after retries.
	MetricBuildFlowRuns      = "build.flow_runs"
	MetricBuildModulesFailed = "build.modules_failed"
	// MetricBuildRunMs is the per-(module, label-run) duration histogram.
	MetricBuildRunMs = "build.run_ms"

	// MetricCVCells counts evaluated (candidate, fold) grid-search cells;
	// MetricCVCellMs is their duration histogram.
	MetricCVCells  = "ml.cv_cells"
	MetricCVCellMs = "ml.cv_cell_ms"
	// MetricGridCandidatesPerSec is the last grid search's throughput in
	// candidates per second.
	MetricGridCandidatesPerSec = "ml.grid.candidates_per_sec"

	// The serve.* series are server-wide: every serving lane writes the
	// same registry handles.
	//
	// MetricServeRequests counts /predict requests admitted past the
	// inflight gate; MetricServeShed those rejected by it (HTTP 429);
	// MetricServeErrors requests that failed after admission (bad payload,
	// no model loaded).
	MetricServeRequests = "serve.requests"
	MetricServeShed     = "serve.shed"
	MetricServeErrors   = "serve.errors"
	// MetricServePredictions counts individual feature rows scored;
	// MetricServeBatches the coalesced PredictBatchInto calls that scored
	// them. Their ratio is the effective batch size.
	MetricServePredictions = "serve.predictions"
	MetricServeBatches     = "serve.batches"
	// MetricServeBatchRows is the per-batch row-count histogram
	// (BatchRowsBuckets); MetricServeBatchOccupancy the last batch's fill
	// fraction of the size cap (gauge in [0, 1]).
	MetricServeBatchRows      = "serve.batch_rows"
	MetricServeBatchOccupancy = "serve.batch_occupancy"
	// MetricServeLatencyUs is the request-latency histogram in
	// microseconds (LatencyMicrosBuckets), measured decode-to-encode
	// around the coalescing wait.
	MetricServeLatencyUs = "serve.latency_us"
	// MetricServeInflight is the number of requests currently admitted
	// across all lanes: raised on admission, lowered on release, so an
	// idle server reads 0.
	MetricServeInflight = "serve.inflight"
	// MetricServeReloads counts model hot-reloads that swapped a new
	// artifact in; MetricServeReloadErrors reload attempts rejected with
	// the old model left serving.
	MetricServeReloads      = "serve.reloads"
	MetricServeReloadErrors = "serve.reload_errors"

	// MetricFleetCellsDone counts grid cells the coordinator accepted a
	// verified result for (each cell counted once — duplicate completions
	// don't inflate it); MetricFleetCellsFailed cells reported terminally
	// failed by a worker.
	MetricFleetCellsDone   = "fleet.cells_done"
	MetricFleetCellsFailed = "fleet.cells_failed"
	// MetricFleetSteals counts in-flight leases re-issued to another
	// worker (work stealing); MetricFleetWorkerLost lease expiries — a
	// worker that went silent past its lease deadline.
	MetricFleetSteals     = "fleet.steal"
	MetricFleetWorkerLost = "fleet.worker_lost"
	// MetricFleetDupComplete counts completions for cells that already
	// had a verified result (the idempotency path);
	// MetricFleetBadComplete completions whose payload failed
	// verification against the cell's cache key and were rejected.
	MetricFleetDupComplete = "fleet.dup_complete"
	MetricFleetBadComplete = "fleet.bad_complete"
	// MetricFleetWorkers is the number of distinct workers that have
	// leased work so far (gauge).
	MetricFleetWorkers = "fleet.workers"
	// MetricFleetWorkerCellsPrefix prefixes the per-worker completed-cell
	// throughput gauges: fleet.worker.<name>.cells_done.
	MetricFleetWorkerCellsPrefix = "fleet.worker."
)
