package main

// metricDef names one reported metric. The tables below are the benchmark's
// contract: BENCHMARK.json lists exactly these names with these units and
// directions (a test compares the two).
type metricDef struct {
	name, unit, better string
	// exact marks a metric made of the switch's own counters alone: it
	// repeats exactly for a seed on the in-process workloads.
	exact bool
}

// endToEnd metrics are what a user of the switch would see; every one is
// defined on every workload. An untraced run prints exactly these.
var endToEnd = []metricDef{
	{"pps", "1/s", "higher", false},
	{"lat_p50_us", "us", "lower", false},
	{"cpu_ns_per_pkt", "ns", "lower", false},
	{"heap_bytes_per_conn", "B", "lower", false},
	{"setup_s", "s", "lower", false},
}

// perLayer metrics belong to single layers (this repo's modules); a traced
// run prints exactly these. README.md maps each group to the end-to-end
// metric and workload it should move.
var perLayer = []metricDef{
	// The per-packet path of an established connection.
	{"netproto.parse_ns", "ns", "lower", false},
	{"netproto.rewrite_ns", "ns", "lower", false},
	{"hashing.keyhash_ns", "ns", "lower", false},
	{"hashing.digest_ns", "ns", "lower", false},
	{"cuckoo.lookup_ns", "ns", "lower", false},
	{"dataplane.selectdip_ns", "ns", "lower", false},
	{"dataplane.process_frame_ns", "ns", "lower", false},
	{"silkroad.process_frames_ns", "ns", "lower", false},
	// Learn and insert: what a new connection pays.
	{"learnfilter.offer_ns", "ns", "lower", false},
	{"learnfilter.drain_ns_per_event", "ns", "lower", false},
	{"cuckoo.insert_ns", "ns", "lower", false},
	{"cuckoo.moves_per_insert", "count", "lower", true},
	{"cuckoo.load_factor", "ratio", "higher", true},
	{"ctrlplane.advance_ns_per_pkt", "ns", "lower", false},
	{"ctrlplane.endconn_ns", "ns", "lower", false},
	{"ctrlplane.inserts_per_s", "1/s", "higher", false},
	{"ctrlplane.insert_queue_max", "count", "lower", true},
	{"ctrlplane.duplicate_learns_per_kconn", "count", "lower", true},
	{"dataplane.learn_offers_per_kpkt", "count", "lower", true},
	{"go.allocs_per_pkt", "count", "lower", false},
	{"go.alloc_bytes_per_pkt", "B", "lower", false},
	{"go.gc_cycles", "count", "lower", false},
	{"go.gc_pause_ms", "ms", "lower", false},
	// DIP-pool updates.
	{"bloom.insert_ns", "ns", "lower", false},
	{"bloom.contains_ns", "ns", "lower", false},
	{"ctrlplane.update_us", "us", "lower", false},
	{"ctrlplane.updates_completed", "count", "higher", true},
	{"ctrlplane.version_reuses", "count", "higher", true},
	{"ctrlplane.fp_resolved", "count", "lower", true},
	{"dataplane.transit_checks_per_kpkt", "count", "lower", true},
	{"dataplane.transit_hits_per_kpkt", "count", "lower", true},
	{"dataplane.old_version_per_kpkt", "count", "lower", true},
	{"dataplane.syn_redirects_per_mpkt", "count", "lower", true},
	// State held per connection.
	{"dataplane.conn_hit_ratio", "ratio", "higher", true},
	{"dataplane.sram_bytes_per_conn", "B", "lower", true},
	{"go.heap_live_mb", "MB", "lower", false},
	// The socket path.
	{"tunnel.window_rtt_p50_us", "us", "lower", false},
	{"tunnel.lone_p99_us", "us", "lower", false},
	{"tunnel.loss_share", "ratio", "lower", false},
	{"tunnel.tx_errors", "count", "lower", false},
	{"tunnel.loopback_null_pps", "1/s", "higher", false},
	{"tunnel.pipeline_share", "ratio", "lower", false},
	{"silkroad.lone_p99_us", "us", "lower", false},
	// Two pipes, recorded until the host has cores for a workload of its own.
	{"pipes.process_frames_ns_2pipe", "ns", "lower", false},
	{"netproto.lanehash_ns", "ns", "lower", false},
	{"pipes.shard_imbalance", "ratio", "lower", false},
	// The ledger and the harness's own cost.
	{"ledger.sum_ns", "ns", "lower", false},
	{"ledger.unaccounted_ns", "ns", "lower", false},
	{"harness.null_ns_per_pkt", "ns", "lower", false},
	{"harness.share", "ratio", "lower", false},
	{"harness.chunk_iqr", "ratio", "lower", false},
	{"harness.trace_overhead", "ratio", "lower", false},
}

// Gates a run must pass to be reported correct.
const (
	// maxHarnessShare bounds the null-harness time per packet as a share of
	// the real time per packet on the in-process workloads.
	maxHarnessShare = 0.05
	// maxUnaccounted bounds |whole path - sum of stages| as a share of the
	// whole path on established.
	maxUnaccounted = 0.15
)
