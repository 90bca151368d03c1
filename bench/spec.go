package main

// The names here are the contract with BENCHMARK.json: spec_test.go holds
// the two in step. Workload sizes are constants of this file, never read
// from the environment, so two commits always run the same load.

// workloadSpec names one workload and the reason it exists.
type workloadSpec struct {
	name string
	why  string
	make func(seed int64, scale int) (tape, error)
}

// workloads lists the six workloads in the order `bench all` runs them.
var workloads = []workloadSpec{
	{"steady-refetch", "tracked pages refetched mostly unchanged: warehouse tiers, stream hash, diff and alerters do the work", genSteady},
	{"discovery-nomatch", "untracked pages nobody wants: the byte-scanning gate and prefilter do almost everything", genDiscovery},
	{"push-fanout", "every page updated and matching dozens of subscriptions: matcher, manager and reporter under two clients", genFanout},
	{"durable-steady", "steady-refetch traffic with DurableDir: WAL fsyncs, reporter journal, stream publish and a tailing consumer", genDurable},
	{"subscribe-churn", "push-fanout traffic while a writer subscribes and unsubscribes at a fixed rate: the write locks beside the read path", genChurn},
	{"cluster-match", "event sets matched through two replicated cluster blocks on loopback: wire and round-trip cost", genCluster},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Sizes at scale 1. `-smoke` divides the counts by 20.
const (
	steadySites        = 100 // × steadyPagesPerSite tracked pages
	steadyPagesPerSite = 20
	steadyProducts     = 30
	steadySubsPerSite  = 50 // 5 000 subscriptions; a tenth report immediately

	durableSites        = 50 // 500 tracked pages
	durablePagesPerSite = 10
	durableSubsPerSite  = 20 // 1 000 subscriptions
	durableCheckpoint   = 10 // System.Checkpoint every this many rounds

	discoveryPages    = 4000 // never-tracked pages, one pass is a round
	discoveryProducts = 100
	discoverySubs     = 50
	discoveryRare     = 20 // one page in this many carries the watched word

	fanoutSubs     = 40000 // two monitoring queries each
	fanoutSites    = 450   // two pages per site, one per client
	fanoutProducts = 8

	churnSubs    = 8000
	churnSites   = 90
	churnRate    = 100  // subscription writes per second, open loop
	churnScripts = 2048 // pre-rendered subscription texts the writer cycles
	churnLive    = 64   // churned subscriptions registered at any time

	clusterComplex = 50000 // complex events of m = 3 over 100 000 atomic events
	clusterDocs    = 4096  // event sets of p = 20
	clusterBlocks  = 2
	clusterReplica = 2

	planRounds = 64 // rounds of the refetch plan before it repeats

	setupRepeats = 3  // set-ups per untraced run; setup_s is their median
	slices       = 12 // time slices per window; rates and percentiles are medians over them
)

// metricSpec is one reported metric.
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the median it may worsen by
}

// endToEnd are the gated metrics; every workload reports every one.
var endToEnd = []metricSpec{
	{"docs_per_s", "1/s", "higher", 0.25},
	{"doc_p50_us", "us", "lower", 0.25},
	{"doc_p90_us", "us", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics, grouped by layer. The first five
// are user-visible delays that exist on some workloads only; BENCHMARK.json
// requires every end-to-end metric from every workload, so they are
// reported here (from the untraced half of the traced run) and read 0 where
// the workload has no such path.
var perLayer = []metricSpec{
	{"notify_p50_us", "us", "lower", 0},
	{"stream_p50_ms", "ms", "lower", 0},
	{"subscribe_p50_ms", "ms", "lower", 0},
	{"subscribe_p99_ms", "ms", "lower", 0},
	{"recover_s", "s", "lower", 0},

	{"crawler.gate_us", "us", "lower", 0},
	{"crawler.gate_pass_share", "share", "lower", 0},
	{"alerter.prefilter_us", "us", "lower", 0},
	{"alerter.prefilter_mb_per_s", "MB/s", "higher", 0},
	{"xmldom.streamhash_us", "us", "lower", 0},
	{"xmldom.parse_us", "us", "lower", 0},
	{"xmldom.parse_mb_per_s", "MB/s", "higher", 0},
	{"warehouse.commit_us", "us", "lower", 0},
	{"warehouse.self_us", "us", "lower", 0},
	{"warehouse.raw_hit_share", "share", "higher", 0},
	{"warehouse.struct_hit_share", "share", "higher", 0},
	{"warehouse.updated_share", "share", "lower", 0},
	{"warehouse.new_share", "share", "lower", 0},
	{"xydiff.diff_us", "us", "lower", 0},
	{"xydiff.classify_us", "us", "lower", 0},
	{"xydiff.ops_per_delta", "count", "lower", 0},
	{"alerter.detect_us", "us", "lower", 0},
	{"alerter.events_per_doc", "count", "lower", 0},
	{"alerter.alert_share", "share", "lower", 0},
	{"alerter.weak_share", "share", "lower", 0},
	{"core.match_us", "us", "lower", 0},
	{"core.matched_per_doc", "count", "lower", 0},
	{"manager.process_us", "us", "lower", 0},
	{"manager.self_us", "us", "lower", 0},
	{"manager.notifs_per_doc", "count", "lower", 0},
	{"manager.subscribe_us", "us", "lower", 0},
	{"manager.unsubscribe_us", "us", "lower", 0},
	{"sublang.parse_us", "us", "lower", 0},
	{"reporter.reports_per_doc", "count", "lower", 0},
	{"reporter.notifs_per_report", "count", "higher", 0},
	{"reporter.tick_us", "us", "lower", 0},
	{"wal.append_us", "us", "lower", 0},
	{"wal.bytes_per_doc", "B", "lower", 0},
	{"wal.checkpoint_ms", "ms", "lower", 0},
	{"stream.publish_us", "us", "lower", 0},
	{"stream.poll_us", "us", "lower", 0},
	{"stream.poll_batch", "count", "higher", 0},
	{"stream.commit_us", "us", "lower", 0},
	{"cluster.rtt_us", "us", "lower", 0},
	{"cluster.server_match_us", "us", "lower", 0},
	{"cluster.bytes_out_per_doc", "B", "lower", 0},
	{"cluster.bytes_in_per_doc", "B", "lower", 0},
	{"cluster.writes_per_doc", "count", "lower", 0},
	{"cluster.degraded", "count", "lower", 0},
	{"runtime.allocs_per_doc", "count", "lower", 0},
	{"runtime.alloc_kb_per_doc", "kB", "lower", 0},
	{"runtime.gc_cpu_share", "share", "lower", 0},
	{"runtime.gc_pause_max_us", "us", "lower", 0},
	{"runtime.heap_live_mb", "MB", "lower", 0},
	{"webgen.gen_s", "s", "lower", 0},
	{"webgen.page_bytes", "B", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.unattributed_pct", "%", "lower", 0},
	{"trace.front_share", "share", "higher", 0},
	{"trace.match_report_share", "share", "higher", 0},
	{"trace.durable_share", "share", "higher", 0},
	{"diag.doc_p99_us", "us", "lower", 0},
	{"diag.notify_p99_us", "us", "lower", 0},
	{"diag.stream_p99_ms", "ms", "lower", 0},
	{"diag.gen_late_p99_ms", "ms", "lower", 0},
}
