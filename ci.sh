#!/usr/bin/env bash
# CI gate for the workspace. Run before pushing; the order goes from
# cheapest to most expensive so failures surface fast.
#
#   ./ci.sh                # full gate: lint, fmt, clippy, build, tests, perf smoke
#   ./ci.sh --quick        # skip the release build, perf, repobench and colord smokes
#   ./ci.sh --no-lint      # skip the radio-lint static-analysis gate
#   ./ci.sh --no-dry-run   # skip the scenario-registry dry-run gate
#   ./ci.sh --no-colord    # skip the colord TCP service smoke gate
#   ./ci.sh --no-mc        # skip the radio-mc exhaustive model-check gate
#   ./ci.sh --repro-corpus # only replay results/repros/ through the monitor
#   ./ci.sh --model-check  # only run the radio-mc gate (writes MC.json)
#   ./ci.sh --tsan         # only run the best-effort ThreadSanitizer leg
#                          # over tests/driver_identity.rs and colord's
#                          # shard_equivalence (prints pass, fail or
#                          # skipped; skips with a notice when the
#                          # nightly toolchain is absent)
set -euo pipefail
cd "$(dirname "$0")"

quick=0
lint=1
dry_run=1
colord=1
model_check=1
repro_only=0
mc_only=0
tsan_only=0
for arg in "$@"; do
    case "$arg" in
        --quick) quick=1 ;;
        --no-lint) lint=0 ;;
        --no-dry-run) dry_run=0 ;;
        --no-colord) colord=0 ;;
        --no-mc) model_check=0 ;;
        --repro-corpus) repro_only=1 ;;
        --model-check) mc_only=1 ;;
        --tsan) tsan_only=1 ;;
        *) echo "ci.sh: unknown flag $arg" >&2; exit 2 ;;
    esac
done

# Exhaustive model check: every execution of the small-n catalog within
# one deviation of the fair schedule passes the Lemma 4–9 monitor and
# covers all 13 legality-table edges; then every witness-carrying
# corpus artifact replays red. Writes MC.json (see DESIGN.md §Model
# checking). State-dedup keeps this subsecond, so it runs by default.
run_model_check() {
    echo "==> radio-mc --check (exhaustive model-check gate)"
    cargo run -q -p radio-mc -- --check --max-n 4 \
        --corpus results/repros --json MC.json
}

if [[ $mc_only -eq 1 ]]; then
    run_model_check
    echo "Model check passed."
    exit 0
fi

# Best-effort ThreadSanitizer leg over the two suites whose threads TSan
# can actually race: the cross-engine identity suite
# (tests/driver_identity.rs, a test of the root package), which drives
# the lockstep and sharded engines against each other, and colord's
# crates/colord/tests/shard_equivalence.rs, whose K-shard workers drive
# the same slot kernel across threads. Needs a nightly
# toolchain with the rust-src component (-Zbuild-std must rebuild std
# with the sanitizer) and ≥4 host threads for the sharded engine to
# spawn workers; when a prerequisite is missing the leg prints
# "skipped: <reason>" instead of failing, so the default gate stays
# green on stable-only hosts. Only a "fail" result fails the leg.
run_tsan() {
    echo "==> ThreadSanitizer leg (driver_identity, shard_equivalence)"
    local status host
    if [[ "$(nproc 2>/dev/null || echo 1)" -lt 4 ]]; then
        status="skipped: fewer than 4 host threads"
    elif ! cargo +nightly --version >/dev/null 2>&1; then
        status="skipped: nightly toolchain not installed"
    elif ! rustup component list --toolchain nightly 2>/dev/null \
            | grep -q '^rust-src (installed)'; then
        status="skipped: nightly rust-src component not installed"
    else
        host="$(rustc -vV | sed -n 's/^host: //p')"
        if RUSTFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -q -Zbuild-std --target "$host" \
            -p unstructured-radio-coloring --test driver_identity \
            -p colord --test shard_equivalence; then
            status="pass"
        else
            status="fail"
        fi
    fi
    echo "    tsan: $status"
    [[ "$status" != "fail" ]]
}

if [[ $tsan_only -eq 1 ]]; then
    run_tsan
    echo "ThreadSanitizer leg done."
    exit 0
fi

if [[ $repro_only -eq 1 ]]; then
    # Replay every shrunk failure artifact and assert the invariant
    # monitor still catches each one (see tests/repro_corpus.rs).
    echo "==> repro corpus replay"
    cargo test -q --test repro_corpus
    echo "Repro corpus replayed."
    exit 0
fi

# Determinism & protocol-conformance linter (crates/lint). Red on any
# unwaived violation or on waiver-count drift; writes LINT.json with
# the full diagnostic list next to the BENCH_sim.json perf artifact.
if [[ $lint -eq 1 ]]; then
    echo "==> radio-lint (static analysis gate)"
    cargo run -q -p radio-lint --release -- --json LINT.json
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Vendored crates (vendor/) are excluded: their docs are not ours to fix.
echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
    -p radio-graph -p radio-transport -p radio-sim -p urn-coloring \
    -p radio-baselines -p radio-bench -p radio-lint -p radio-mc \
    -p colord -p unstructured-radio-coloring

echo "==> cargo test (workspace)"
cargo test --workspace -q

# The workspace tests above already include the corpus runner; this
# re-run is the named gate so its failure is unambiguous in CI logs.
echo "==> repro corpus replay"
cargo test -q --test repro_corpus

if [[ $model_check -eq 1 ]]; then
    run_model_check
fi

# Scenario registry health: smoke-execute every registered experiment
# spec at tiny n with the invariant monitor on (exits non-zero on any
# violation, engine error, or non-termination).
if [[ $dry_run -eq 1 ]]; then
    echo "==> experiments --dry-run (scenario registry gate)"
    cargo run -q -p radio-bench --bin experiments -- --dry-run
fi

if [[ $quick -eq 0 ]]; then
    # --workspace: a bare build at the root builds only the root
    # package, not the slot_throughput / colord / colord-load binaries
    # the legs below run.
    echo "==> cargo build --release --workspace"
    cargo build --release --workspace

    # Perf trajectory: delivery-kernel slots/sec on dense UDG workloads.
    # Writes BENCH_sim.json and fails if the scatter kernel — bare or
    # behind the Ideal channel model — ever drops below 2x the
    # reference listener-side re-scan at Δ=128, or if the monitored
    # kernel+Ideal path drops below 1.8x (monitoring must stay cheap
    # enough to leave on). Also times the sharded slot-parallel driver
    # end-to-end (sharded_slots_per_sec / sharded_vs_kernel fields) and
    # — on hosts with ≥4 threads — gates it at ≥2x the kernel leg at
    # n=1024, Δ*=128.
    echo "==> slot_throughput microbench"
    ./target/release/slot_throughput BENCH_sim.json

    # Repository benchmark smoke (repobench/, its own package outside
    # the workspace): builds the benchmark against the current sources
    # and runs every workload at tiny size, untraced and traced,
    # checking metric names, units, correctness flags and the two
    # designed failure modes. About 45 s on a 2-thread host.
    echo "==> repobench smoke"
    python3 repobench/smoke.py

    # colord end-to-end smoke: boot the real TCP coloring service on an
    # ephemeral loopback port, drive 64 client sessions (with churn)
    # through colord-load, and require a complete, conflict-free
    # coloring plus a clean shutdown — all offline, all inside the
    # timeout. Merges colord_clients / colord_messages /
    # colord_msgs_per_sec into BENCH_sim.json for the perf trajectory.
    if [[ $colord -eq 1 ]]; then
        # One smoke leg: boot colord with the given extra server flags,
        # drive colord-load with the given extra generator flags, and
        # require a complete, conflict-free coloring plus a clean
        # shutdown. No --kappa2 on the server: the online estimator
        # must discover the 0.75-spacing lattice's clique bound by
        # itself (the E21 acceptance), so every leg doubles as the
        # estimator gate.
        colord_smoke_leg() {
            local server_flags="$1" load_flags="$2"
            rm -f colord_smoke.out
            # shellcheck disable=SC2086
            ./target/release/colord --seed 7 $server_flags > colord_smoke.out &
            colord_pid=$!
            port=""
            for _ in $(seq 100); do
                port=$(sed -n 's/^colord: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' colord_smoke.out)
                [[ -n "$port" ]] && break
                sleep 0.1
            done
            if [[ -z "$port" ]]; then
                echo "ci.sh: colord did not report a listening port" >&2
                kill "$colord_pid" 2>/dev/null || true
                exit 1
            fi
            # shellcheck disable=SC2086
            timeout 300 ./target/release/colord-load --addr "127.0.0.1:$port" \
                --clients 64 --messages 20000 --spacing 0.75 \
                --churn 0.05 --settle-seconds 120 --bench-out BENCH_sim.json \
                --shutdown $load_flags
            wait "$colord_pid"
            rm -f colord_smoke.out
        }

        echo "==> colord smoke (TCP service gate, single shard)"
        colord_smoke_leg "" "--workers 4"

        # Sharded leg: two strip-parallel shards stepped by worker
        # threads, loaded by two forked generator processes (the
        # single-host rehearsal for multi-host load). Merges
        # colord_sharded_clients / colord_sharded_messages /
        # colord_sharded_msgs_per_sec into BENCH_sim.json.
        echo "==> colord smoke (TCP service gate, 2 shards)"
        colord_smoke_leg "--shards 2" "--workers 4 --procs 2 --bench-prefix colord_sharded"

        # Perf trajectory: on hosts with enough parallelism to mean
        # anything (>= 4 threads) the sharded service must at least
        # double single-lock pump throughput. Smaller hosts still
        # record both numbers for the trajectory.
        single=$(sed -n 's/.*"colord_msgs_per_sec":\([0-9.eE+-]*\).*/\1/p' BENCH_sim.json)
        sharded=$(sed -n 's/.*"colord_sharded_msgs_per_sec":\([0-9.eE+-]*\).*/\1/p' BENCH_sim.json)
        if [[ -z "$single" || -z "$sharded" ]]; then
            echo "ci.sh: colord bench fields missing from BENCH_sim.json" >&2
            exit 1
        fi
        if [[ "$(nproc)" -ge 4 ]]; then
            awk -v s="$single" -v p="$sharded" 'BEGIN {
                ratio = p / s
                printf "colord sharded/single pump throughput: %.2fx\n", ratio
                exit !(ratio >= 2.0)
            }' || {
                echo "ci.sh: sharded colord below 2x single-lock pump throughput" >&2
                exit 1
            }
        else
            echo "colord sharded gate recorded only ($(nproc) threads < 4)"
        fi
    fi
fi

echo "CI gate passed."
