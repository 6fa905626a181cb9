#!/usr/bin/env bash
# Full verification gate: build, tests, lints, formatting.
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
# --workspace: the smokes below invoke target/release/sbcast directly — a
# root-package build would leave it stale.
cargo build --release --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> sbperf smoke (the benchmark builds against the sim API; every check holds)"
# 1%-scale run of every workload: execute's fold equals the outside fold
# and merge_shard_runs equals both, so an API or merge change that breaks
# the benchmark fails here rather than in the driver.
cargo test --offline --manifest-path sbperf/Cargo.toml

echo "==> cargo doc --no-deps (warnings denied, first-party crates)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    -p skyscraper-broadcasting -p vod-units -p sb-core -p sb-pyramid \
    -p sb-sim -p sb-workload -p sb-batching -p sb-metrics -p sb-control \
    -p sb-resilience -p sb-analysis -p sb-cli

echo "==> popularity-shift smoke (static vs dynamic control, determinism across --threads 1/2)"
# Each run's snapshot is relabeled with its policy and merged in seed
# order: stdout, --json and --metrics must not depend on the thread count.
ctl_dir="$(mktemp -d)"
trap 'rm -rf "$ctl_dir"' EXIT
for n in 1 2; do
    cargo run -q -p sb-cli --bin sbcast -- control --horizon 300 --seeds 11,23 --threads "$n" \
        --json "$ctl_dir/ctl-$n.json" --metrics "$ctl_dir/m-$n.json" 2>/dev/null > "$ctl_dir/ctl-$n.out"
done
test -s "$ctl_dir/ctl-1.json" || { echo "control --json is empty"; exit 1; }
grep -q 'policy=dynamic' "$ctl_dir/m-1.json"
cmp "$ctl_dir/ctl-1.out" "$ctl_dir/ctl-2.out"
cmp "$ctl_dir/ctl-1.json" "$ctl_dir/ctl-2.json"
cmp "$ctl_dir/m-1.json" "$ctl_dir/m-2.json"

echo "==> resilience smoke (fault study, determinism across --threads 1/2)"
# stdout, --json and --metrics must not depend on the thread count, and
# the metrics must carry the recovery half's repair histogram.
res_dir="$(mktemp -d)"
trap 'rm -rf "$ctl_dir" "$res_dir"' EXIT
for n in 1 2; do
    cargo run -q -p sb-cli --bin sbcast -- resilience --horizon 200 --seeds 7 --threads "$n" \
        --json "$res_dir/res-$n.json" --metrics "$res_dir/m-$n.json" \
        2>/dev/null > "$res_dir/res-$n.out"
done
test -s "$res_dir/res-1.json" || { echo "resilience --json is empty"; exit 1; }
grep -q 'resilience_stall_minutes' "$res_dir/m-1.json"
cmp "$res_dir/res-1.out" "$res_dir/res-2.out"
cmp "$res_dir/res-1.json" "$res_dir/res-2.json"
cmp "$res_dir/m-1.json" "$res_dir/m-2.json"

echo "==> scale smoke (sharded core, determinism across --shards 1/2/4 x --threads 1/4)"
# --metrics too: each run's core registry is fed through series handles,
# the sharded runs merge one snapshot per shard, and every shard count
# must write the same snapshot bytes.
scale_dir="$(mktemp -d)"
trap 'rm -rf "$ctl_dir" "$res_dir" "$scale_dir"' EXIT
for s in 1 2 4; do
    for n in 1 4; do
        cargo run -q -p sb-cli --bin sbcast -- scale --sessions 3000 --horizon 300 \
            --shards "$s" --threads "$n" \
            --json "$scale_dir/scale-$s-$n.json" --metrics "$scale_dir/m-$s-$n.json" \
            2>/dev/null > "$scale_dir/scale-$s-$n.out"
    done
done
test -s "$scale_dir/scale-1-1.json" || { echo "BENCH_scale.json is empty"; exit 1; }
test -s "$scale_dir/m-1-1.json" || { echo "scale --metrics snapshot is empty"; exit 1; }
grep -q '"sim_latency_minutes"' "$scale_dir/m-1-1.json"
grep -q '"shard_peak_agenda"' "$scale_dir/scale-1-1.json"
grep -q '"sessions_per_sim_second"' "$scale_dir/scale-1-1.json"
for s in 1 2 4; do
    for n in 1 4; do
        diff -u "$scale_dir/scale-1-1.json" "$scale_dir/scale-$s-$n.json"
        diff -u "$scale_dir/scale-1-1.out" "$scale_dir/scale-$s-$n.out"
        diff -u "$scale_dir/m-1-1.json" "$scale_dir/m-$s-$n.json"
    done
done

echo "==> scenario smoke (metro pack, determinism across --shards x --threads)"
# --metrics too: the flagship pass runs at each --shards, and every combo
# must write the same snapshot bytes.
scn_dir="$(mktemp -d)"
trap 'rm -rf "$ctl_dir" "$res_dir" "$scale_dir" "$scn_dir"' EXIT
for combo in "1 1" "2 4" "4 2"; do
    read -r s n <<<"$combo"
    cargo run -q --release -p sb-cli --bin sbcast -- scenario --profile smoke \
        --shards "$s" --threads "$n" \
        --json "$scn_dir/scn-$s-$n.json" --metrics "$scn_dir/m-$s-$n.json" \
        2>/dev/null > "$scn_dir/scn-$s-$n.out"
done
test -s "$scn_dir/scn-1-1.json" || { echo "BENCH_scenario.json is empty"; exit 1; }
test -s "$scn_dir/m-1-1.json" || { echo "scenario --metrics snapshot is empty"; exit 1; }
grep -q '"demand_share"' "$scn_dir/scn-1-1.json"
grep -q '"dynamic_report"' "$scn_dir/scn-1-1.json"
grep -q '"shard_peak_agenda"' "$scn_dir/scn-1-1.json"
for combo in "2 4" "4 2"; do
    read -r s n <<<"$combo"
    diff -u "$scn_dir/scn-1-1.json" "$scn_dir/scn-$s-$n.json"
    diff -u "$scn_dir/scn-1-1.out" "$scn_dir/scn-$s-$n.out"
    cmp "$scn_dir/m-1-1.json" "$scn_dir/m-$s-$n.json"
done

echo "==> recovery smoke (kill/resume byte identity over --shards x --threads)"
# The flagship crash-recovery invariant through the CLI: a supervised run
# whose shards are killed and resumed from checkpoints must print
# "identical to uninterrupted execute: yes" (the binary exits nonzero on
# divergence) at every shard count and thread count.
rec_dir="$(mktemp -d)"
trap 'rm -rf "$ctl_dir" "$res_dir" "$scale_dir" "$scn_dir" "$rec_dir"' EXIT
for s in 1 2 4; do
    for n in 1 2; do
        chaos="kill:0@ckpt:1;kill:0@tick:40000"
        if [ "$s" -gt 1 ]; then chaos="$chaos;kill:1@ckpt:2"; fi
        cargo run -q --release -p sb-cli --bin sbcast -- recovery \
            --sessions 2000 --horizon 200 --cadence 25 --shards "$s" --threads "$n" \
            --chaos "$chaos" 2>/dev/null > "$rec_dir/rec-$s-$n.out"
        grep -q 'identical to uninterrupted execute: yes' "$rec_dir/rec-$s-$n.out"
    done
    # Same shard count, other thread count: byte-identical stdout.
    diff -u "$rec_dir/rec-$s-1.out" "$rec_dir/rec-$s-2.out"
done
# A kill in the final drain of session ends, after the shard's last
# arrival: one crash, and the resumed shard has nothing left to replay.
cargo run -q --release -p sb-cli --bin sbcast -- recovery \
    --sessions 2000 --horizon 200 --cadence 25 --shards 2 --threads 2 \
    --chaos "kill:0@tick:1500000" 2>/dev/null > "$rec_dir/rec-drain.out"
grep -q 'crashes 1,' "$rec_dir/rec-drain.out"
grep -q 'replayed 0,' "$rec_dir/rec-drain.out"
grep -q 'identical to uninterrupted execute: yes' "$rec_dir/rec-drain.out"

echo "==> corrupt-checkpoint smoke (checksum rejection + fall-back, then graceful degradation)"
cargo run -q --release -p sb-cli --bin sbcast -- recovery \
    --sessions 2000 --horizon 200 --cadence 25 --shards 2 --threads 2 \
    --chaos "corrupt:1@ckpt:2;kill:1@ckpt:2" 2>/dev/null > "$rec_dir/rec-corrupt.out"
grep -q 'corrupt rejected 1' "$rec_dir/rec-corrupt.out"
grep -q 'identical to uninterrupted execute: yes' "$rec_dir/rec-corrupt.out"
# A shard that exhausts its restart budget degrades to an explicit
# partial run with the lost shard named — exit 0, never a panic.
cargo run -q --release -p sb-cli --bin sbcast -- recovery \
    --sessions 2000 --horizon 200 --cadence 25 --shards 2 --threads 2 \
    --chaos "kill:1@ckpt:1;kill:1@ckpt:2" --retry 1 --retry-attempts 1 \
    2>/dev/null > "$rec_dir/rec-partial.out"
grep -q 'PARTIAL RUN: 1 shard(s) lost' "$rec_dir/rec-partial.out"
grep -q 'shard 1: lost after 1 attempt(s)' "$rec_dir/rec-partial.out"
# And a corrupted chaos spec / zero cadence fail with typed errors.
if cargo run -q --release -p sb-cli --bin sbcast -- recovery --cadence 0 2>"$rec_dir/err0"; then
    echo "cadence 0 must be rejected"; exit 1
fi
grep -q 'checkpoint cadence is 0 sessions' "$rec_dir/err0"
if cargo run -q --release -p sb-cli --bin sbcast -- recovery --chaos "corrupt:0@tick:9" \
    2>"$rec_dir/err1"; then
    echo "corrupt@tick must be rejected"; exit 1
fi
grep -q 'corruption targets checkpoints, not ticks' "$rec_dir/err1"

echo "==> recovery sweep artifact (BENCH_recovery.json, cadence trade)"
cargo run -q --release -p sb-cli --bin sbcast -- recovery --mode sweep --profile smoke \
    --threads 4 --json "$rec_dir/rec-sweep.json" 2>/dev/null > "$rec_dir/rec-sweep.out"
test -s "$rec_dir/rec-sweep.json" || { echo "BENCH_recovery.json is empty"; exit 1; }
grep -q '"replayed_sessions"' "$rec_dir/rec-sweep.json"
grep -q '"identical": true' "$rec_dir/rec-sweep.json"

echo "==> frontier smoke (scheme zoo Pareto frontier, 4-way over --shards x --threads)"
# The frontier artifact must be byte-identical — JSON and stdout — for
# every knob combination: {shards 1, 2} x {threads 1, 2}.
fr_dir="$(mktemp -d)"
trap 'rm -rf "$ctl_dir" "$res_dir" "$scale_dir" "$scn_dir" "$rec_dir" "$fr_dir"' EXIT
for combo in "1 1" "1 2" "2 1" "2 2"; do
    read -r s n <<<"$combo"
    cargo run -q --release -p sb-cli --bin sbcast -- frontier --profile smoke \
        --shards "$s" --threads "$n" \
        --json "$fr_dir/fr-$s-$n.json" 2>/dev/null > "$fr_dir/fr-$s-$n.out"
done
test -s "$fr_dir/fr-1-1.json" || { echo "BENCH_frontier.json is empty"; exit 1; }
grep -q '"on_frontier_analytic"' "$fr_dir/fr-1-1.json"
grep -q '"sim_jitter_free"' "$fr_dir/fr-1-1.json"
grep -q 'CTIFB' "$fr_dir/fr-1-1.json"
grep -q 'AQHB' "$fr_dir/fr-1-1.json"
for combo in "1 2" "2 1" "2 2"; do
    read -r s n <<<"$combo"
    diff -u "$fr_dir/fr-1-1.json" "$fr_dir/fr-$s-$n.json"
    diff -u "$fr_dir/fr-1-1.out" "$fr_dir/fr-$s-$n.out"
done
# SB survives both frontiers at the paper operating point (B=320, M=10).
grep -q 'AS' "$fr_dir/fr-1-1.out"
# The buggy-HB opt-in surfaces the refuted point as infeasible.
cargo run -q --release -p sb-cli --bin sbcast -- frontier --profile smoke --buggy-hb yes \
    --json "$fr_dir/fr-hb.json" 2>/dev/null > "$fr_dir/fr-hb.out"
grep -q '"sim_jitter_free": false' "$fr_dir/fr-hb.json"

echo "==> frontier paper grid (8 simulated sessions per cell)"
./target/release/sbcast frontier --sessions 8 --threads 4 --shards 2 \
    --json "$fr_dir/fr-paper.json" > "$fr_dir/fr-paper.out" 2>/dev/null
test -s "$fr_dir/fr-paper.json" || { echo "frontier JSON missing"; exit 1; }
grep -q '"cells"' "$fr_dir/fr-paper.json"

echo "==> distribution smoke (distributed tier, 4-way over --shards x --threads)"
# The distributed-tier artifact must be byte-identical — JSON and stdout —
# for every knob combination: {shards 1, 2} x {threads 1, 2}.
dist_dir="$(mktemp -d)"
trap 'rm -rf "$ctl_dir" "$res_dir" "$scale_dir" "$scn_dir" "$rec_dir" "$fr_dir" "$dist_dir"' EXIT
for combo in "1 1" "1 2" "2 1" "2 2"; do
    read -r s n <<<"$combo"
    cargo run -q --release -p sb-cli --bin sbcast -- distribution --profile smoke \
        --shards "$s" --threads "$n" \
        --json "$dist_dir/dist-$s-$n.json" 2>/dev/null > "$dist_dir/dist-$s-$n.out"
done
test -s "$dist_dir/dist-1-1.json" || { echo "BENCH_distribution.json is empty"; exit 1; }
grep -q '"HotHead"' "$dist_dir/dist-1-1.json"
grep -q '"peer_windows"' "$dist_dir/dist-1-1.json"
grep -q '"savings_vs_naive"' "$dist_dir/dist-1-1.json"
grep -q '"bound_mbps"' "$dist_dir/dist-1-1.json"
for combo in "1 2" "2 1" "2 2"; do
    read -r s n <<<"$combo"
    diff -u "$dist_dir/dist-1-1.json" "$dist_dir/dist-$s-$n.json"
    diff -u "$dist_dir/dist-1-1.out" "$dist_dir/dist-$s-$n.out"
done
# All four placement policies price both peer modes in the stdout table.
for policy in full partitioned hothead proportional; do
    grep -q "^$policy" "$dist_dir/dist-1-1.out"
done

echo "==> distribution paper profile (default artifact name)"
sbcast_bin="$PWD/target/release/sbcast"
(cd "$dist_dir" && "$sbcast_bin" distribution --threads 4 --shards 2 > dist-paper.out 2>/dev/null)
test -s "$dist_dir/BENCH_distribution.json" || { echo "BENCH_distribution.json missing"; exit 1; }

echo "==> release profile keeps integer overflow checks on"
grep -A2 '^\[profile\.release\]' Cargo.toml | grep -q 'overflow-checks = true'

echo "==> scale release smoke (>= 10M streamed sessions)"
# 2.2M-session grid: 4 cells + the flagship pass = 11M streamed sessions.
./target/release/sbcast scale --sessions 2200000 --shards 4 --threads 4 \
    --json "$scale_dir/scale-full.json" > "$scale_dir/scale-full.out" 2>/dev/null
grep -q '"total_sessions": 2200000' "$scale_dir/scale-full.json"

echo "==> scenario paper grid"
./target/release/sbcast scenario --shards 2 --threads 4 \
    --json "$scn_dir/scn-paper.json" > "$scn_dir/scn-paper.out" 2>/dev/null
grep -q '"flash"' "$scn_dir/scn-paper.json"

echo "==> doc lint (shipped docs name the shipped interfaces)"
grep -q '^## 11\. Sharded scale-out and the one-RunConfig API' DESIGN.md
grep -q 'shard_invariance' DESIGN.md
grep -q '^## 12\. The agenda: one binary heap' DESIGN.md
grep -q 'COMPACT_FLOOR' DESIGN.md
grep -q 'sbcast -- scale' README.md
grep -q 'BENCH_scale.json' README.md
grep -q 'unknown flag' README.md
grep -q 'sbcast -- table1' README.md
grep -q '^## 13\. The metropolitan scenario pack' DESIGN.md
grep -q 'scenario_invariance' DESIGN.md
grep -q 'region_slots' DESIGN.md
grep -q 'sbcast -- scenario' README.md
grep -q 'BENCH_scenario.json' README.md
grep -q '^## 14\. Checkpoint/restore and the crash-recovery supervisor' DESIGN.md
grep -q 'SBCKPT' DESIGN.md
grep -q 'checkpoint_restore' DESIGN.md
grep -q 'recovery_supervisor' DESIGN.md
grep -q 'sbcast -- recovery' README.md
grep -q 'BENCH_recovery.json' README.md
grep -q '\-\-chaos' README.md
grep -q '^## 15\. The scheme zoo, completed: CTIFB, AQHB and the automated frontier' DESIGN.md
grep -q 'PlanIndex' DESIGN.md
grep -q 'sbcast -- frontier' README.md
grep -q 'BENCH_frontier.json' README.md
grep -q '^## 16\. The distributed tier: placement, routing and peer assist' DESIGN.md
grep -q 'PlacementPolicy' DESIGN.md
grep -q 'source-once' DESIGN.md
grep -q 'Study. trait' DESIGN.md
grep -q 'sbcast -- distribution' README.md
grep -q 'BENCH_distribution.json' README.md
grep -q '\-\-policies' README.md

echo "verify: OK"
