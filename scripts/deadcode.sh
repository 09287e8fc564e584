#!/usr/bin/env bash
# deadcode.sh: list every non-test function under internal/ that no shipped
# binary links, and fail on any that the table below does not excuse.
#
# The linker is the oracle. Every cmd/ and examples/ binary, and the bench/
# binary, is built with inlining off (-gcflags=all=-l), so a function that
# is called survives as its own symbol. `go tool nm` then lists what each
# binary contains. The universe is every func declared in a non-test .go
# file under internal/. A declared function that is in no binary is reached
# only by tests, or by nothing.
#
# Names are compared as package.Func or package.Type.Method, with generic
# type arguments stripped and pointer receivers written as value
# receivers, so a generic method such as slab.at matches whatever shapes
# the binaries instantiate.
#
# Usage: scripts/deadcode.sh   (from anywhere in the repo; needs only go)
# It prints each unexcused survivor and each stale table entry, and exits 1
# if there is either.
set -euo pipefail
cd "$(dirname "$0")/.."

# Allowed survivors: one symbol and its reason per line; # starts a comment.
allowed=$(cat <<'TABLE'
# Public API: the facade re-exports these types under its own names, or
# calls these from a facade method, and no binary happens to use them.
repro/internal/flightrec.Flow.Records            silkroad.Flow API
repro/internal/flightrec.Flow.Stop               silkroad.Flow API
repro/internal/flightrec.Flow.Tuple              silkroad.Flow API
repro/internal/health.Checker.Down               silkroad.HealthChecker API
repro/internal/health.Checker.Unwatch            silkroad.HealthChecker API
repro/internal/health.Checker.Watching           silkroad.HealthChecker API
repro/internal/health.DefaultConfig              behind silkroad.HealthDefaults
repro/internal/netproto.FiveTuple.KeyBytes       silkroad.FiveTuple API; the key layout TestLanesAreKeyBytes pins the lane hash to
repro/internal/netproto.FiveTuple.VIPKey         silkroad.FiveTuple API
repro/internal/netproto.Frame.IsSYN              silkroad.Frame API
repro/internal/netproto.Frame.Payload            silkroad.Frame API
repro/internal/netproto.Packet.IsSYN             silkroad.Packet API
repro/internal/sched.ManualClock.Advance         the clock silkroad.NewManualClock returns
repro/internal/slo.Aggregate                     behind silkroad.Cluster.SLO
repro/internal/slo.accumulate                    behind silkroad.Cluster.SLO
repro/internal/slo.accumulateSlow                behind silkroad.Cluster.SLO
repro/internal/slo.Evaluator.Interval            silkroad.SLOEvaluator API
repro/internal/telemetry.Histogram.Count         the histogram silkroad.Telemetry.Histogram returns
repro/internal/telemetry.Snapshot.Delta          silkroad.TelemetrySnapshot API
repro/internal/telemetry.VIPSnapshot.sub         behind silkroad.TelemetrySnapshot.Delta
repro/internal/telemetry.HistogramSnapshot.Delta behind silkroad.TelemetrySnapshot.Delta
repro/internal/telemetry.HistogramSnapshot.Histogram silkroad.TelemetrySnapshot's histogram API
repro/internal/telemetry.HistogramSnapshot.Quantile  silkroad.TelemetrySnapshot's histogram API
repro/internal/stats.NewHistogramFromCounts      behind TelemetrySnapshot's HistogramSnapshot.Histogram
repro/internal/stats.NewHistogram                behind TelemetrySnapshot's HistogramSnapshot.Histogram
repro/internal/stats.Histogram.Bucket            API of the histogram HistogramSnapshot.Histogram returns
repro/internal/stats.Histogram.Observe           API of the histogram HistogramSnapshot.Histogram returns
repro/internal/stats.Histogram.Total             API of the histogram HistogramSnapshot.Histogram returns
# Planned callers.
repro/internal/bloom.Filter.EstimatedFPR         the expected bloom false-positive gauge (ROADMAP) calls it
repro/internal/bloom.Filter.FillRatio            the expected bloom false-positive gauge (ROADMAP) calls it
# References and fixtures the tests are written against.
repro/internal/netproto.DecapIPIP                receiver side of EncapIPIP: FuzzDecapIPIP and the DSR tests decode with it
repro/internal/hashing.Digest                    byte-wise reference the hashing tests pin HashDigestLanes to
repro/internal/hashing.Family.Hash               byte-wise reference beside Family.HashUint64 in the hashing tests
repro/internal/cuckoo.Table.Find                 full-key probe the store tests check placement with
repro/internal/cuckoo.Table.EntryBits            entry-width accessor the cuckoo tests assert
repro/internal/dataplane.Switch.InsertConn       installs a connection on a bare data plane in the dataplane tests
repro/internal/dataplane.Switch.DeleteConn       removes one on a bare data plane in the dataplane tests
repro/internal/dataplane.Switch.ResolveSYNCollision  the zero-time form of ResolveSYNCollisionAt the dataplane tests call
repro/internal/dataplane.Switch.TransitInserts   TransitTable fill the update tests assert
repro/internal/bloom.Filter.Inserts              behind Switch.TransitInserts
repro/internal/bloom.Filter.K                    hash-count accessor the bloom tests assert
repro/internal/regarray.Array.SizeBytes          SRAM size the register-array tests assert
repro/internal/regarray.Array.Update             the read-modify-write the register-array tests exercise
repro/internal/regarray.Counter.Add              the byte/packet counter the register-array tests exercise
repro/internal/asic.Chip.Config                  per-pipe chip budget the pipes tests assert
repro/internal/pipes.Engine.Memory               chip-level SRAM breakdown the pipes tests reconcile with Stats
repro/internal/pipes.Engine.Used                 chip-level resource use the pipes tests bound
repro/internal/dataplane.MemoryBreakdown.Add     behind Engine.Memory
repro/internal/learnfilter.Filter.Capacity       configuration accessor the learn-filter and asic tests assert
repro/internal/learnfilter.Filter.Contains       membership probe the learn-filter tests use
repro/internal/learnfilter.Filter.Timeout        configuration accessor the learn-filter tests assert
repro/internal/handoff.Transfer.Done             completion check the handoff tests use
repro/internal/flowsim.DefaultConfig             defaults the flow-simulator tests start from
repro/internal/hybrid.Balancer.ConnEnd           flowsim.Balancer method the hybrid tests call
repro/internal/slb.Balancer.Conns                connection count the SLB tests assert
repro/internal/slb.Balancer.Pool                 pool accessor the SLB tests assert
repro/internal/slb.Balancer.RemoveVIP            VIP removal the SLB tests exercise
repro/internal/slb.Balancer.Stats                counters the SLB tests assert
repro/internal/stats.CDF.Mean                    accessor the stats tests assert
repro/internal/stats.CDF.Table                   quantile table the stats tests render
repro/internal/stats.CDF.N                       behind CDF.Table
repro/internal/stats.Counter.Count               accessor the stats tests assert
repro/internal/stats.Counter.Total               accessor the stats tests assert
TABLE
)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/bin"

for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... ./examples/...); do
	go build -gcflags=all=-l -o "$work/bin/${pkg##*/}" "$pkg"
done
(cd bench && go build -gcflags=all=-l -o "$work/bin/bench" .)

# The binaries' internal/ functions, normalised.
for f in "$work"/bin/*; do go tool nm "$f"; done |
	sed -nE 's/^ *[0-9a-f]+ [Tt] (repro\/internal\/.*)$/\1/p' |
	sed -E ':a; s/\[[^][]*\]//; ta; s/\(\*([^)]*)\)/\1/' |
	sort -u >"$work/linked"

# The declared functions, named the same way: a receiver "(s *slab[T])"
# becomes "slab.".
find internal -name '*.go' ! -name '*_test.go' | sort | while read -r file; do
	sed -nE 's/^func (\(([^)]*)\) )?([A-Za-z0-9_]+).*/\2|\3/p' "$file" |
		sed -E 's/\[[^]]*\]//; s/^.*[ *]([A-Za-z0-9_]+)\|/\1|/; s/^([A-Za-z0-9_]+)\|/\1./; s/^\|//' |
		grep -vE '^(init|main)$' |
		sed "s|^|repro/$(dirname "$file").|"
done | sort -u >"$work/defined"
comm -23 "$work/defined" "$work/linked" >"$work/unlinked"
awk 'NF && !/^#/ {print $1}' <<<"$allowed" | sort -u >"$work/allowed"

status=0
while read -r sym; do
	echo "unlinked: $sym"
	status=1
done < <(comm -23 "$work/unlinked" "$work/allowed")
while read -r sym; do
	echo "stale table entry (linked or gone): $sym"
	status=1
done < <(comm -13 "$work/unlinked" "$work/allowed")
echo "deadcode: $(wc -l <"$work/unlinked") unlinked internal/ functions, $(wc -l <"$work/allowed") in the table"
exit $status
