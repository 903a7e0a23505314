#!/usr/bin/env bash
# CI pipeline for the automotive CPS reproduction workspace.
#
#   ./ci.sh             full pipeline: release build, tests, docs gate
#                       (rustdoc -D warnings + doctests), clippy, bench smoke
#   ./ci.sh quick       build + tests only
#   ./ci.sh perf        run the perf bench set and append this commit's results
#                       to BENCH_results.json, the machine-readable perf
#                       trajectory ({"<git describe>": {bench -> ns/iter}, ...});
#                       re-running the same commit upserts its own entries,
#                       other commits' history is never touched
#   ./ci.sh perf-check  read the keyed history and compare this commit's
#                       entries against the previous key: fails when any
#                       benchmark's mean regressed by more than
#                       CPS_PERF_CHECK_THRESHOLD percent (default 25).
#                       A missing history file or a history without entries
#                       for this commit is "no baseline": reported and exit 0,
#                       so fresh clones and first-run pipelines don't fail.
#   ./ci.sh soak        long-running acceptance checks: the million-scenario
#                       streaming campaign (tests/robustness_campaign.rs,
#                       normally #[ignore]d) in release mode.
#
# Everything runs offline: the two external dev-dependencies (criterion,
# proptest) are API-compatible shims vendored under crates/compat/.

set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

# History key for perf/perf-check: `git describe`, with the dirty marker
# decided while ignoring BENCH_results.json itself — the perf run modifies
# that file, which must not re-key the very numbers it just recorded.
# `--untracked-files=no` mirrors `git describe --dirty` semantics (untracked
# files never mark the tree dirty); the pathspec excludes exactly the
# results file, nothing that merely contains its name.
bench_key() {
    local base
    base="$(git describe --always 2>/dev/null || echo unversioned)"
    if git status --porcelain --untracked-files=no -- ':(exclude)BENCH_results.json' \
            2>/dev/null | grep -q .; then
        base="$base-dirty"
    fi
    echo "$base"
}

if [[ "${1:-}" == "perf" ]]; then
    # History key: honour an explicit CPS_BENCH_KEY, else `git describe`.
    # The canonical flow keys results to the commit that produced them:
    # commit the code first, run `./ci.sh perf` on the clean tree, then
    # commit BENCH_results.json (a `-dirty` key means the numbers came from
    # an uncommitted state and should be re-measured before committing;
    # BENCH_results.json itself is ignored when deciding dirtiness).
    CPS_BENCH_KEY="${CPS_BENCH_KEY:-$(bench_key)}"
    step "perf bench set -> BENCH_results.json (history key: $CPS_BENCH_KEY)"
    export CPS_BENCH_JSON="$PWD/BENCH_results.json"
    export CPS_BENCH_KEY
    cargo bench -p cps-bench \
        --bench fleet_design \
        --bench characterize \
        --bench kernel_step \
        --bench scenario_throughput \
        --bench campaign_throughput \
        --bench allocation_opt \
        --bench service_roundtrip
    echo
    echo "BENCH_results.json:"
    cat BENCH_results.json
    exit 0
fi

if [[ "${1:-}" == "perf-check" ]]; then
    # Same key resolution as `./ci.sh perf`, so check follows record.
    CPS_BENCH_KEY="${CPS_BENCH_KEY:-$(bench_key)}"
    step "perf-check: $CPS_BENCH_KEY vs previous key in BENCH_results.json"
    CPS_BENCH_KEY="$CPS_BENCH_KEY" python3 - <<'PYEOF'
import json, os, sys

threshold = float(os.environ.get("CPS_PERF_CHECK_THRESHOLD", "25"))
key = os.environ["CPS_BENCH_KEY"]
# Both "no history file" and "no entries recorded for this commit" mean
# there is nothing to compare yet: that's a fresh clone or a first run,
# not a regression, so report "no baseline" and succeed.
try:
    with open("BENCH_results.json") as handle:
        history = json.load(handle)  # insertion order == recording order
except FileNotFoundError:
    print("no baseline: BENCH_results.json not found - run ./ci.sh perf to record one")
    sys.exit(0)

keys = list(history)
if key not in keys:
    print(
        f"no baseline: no entries for {key!r} in BENCH_results.json "
        f"(have: {', '.join(keys)}) - run ./ci.sh perf on this commit to record them"
    )
    sys.exit(0)
previous_keys = keys[: keys.index(key)]
if not previous_keys:
    print(f"{key} is the oldest key in the history - nothing to compare against")
    sys.exit(0)
previous = previous_keys[-1]

current_set = history[key]
previous_set = history[previous]
shared = [name for name in current_set if name in previous_set]
if not shared:
    sys.exit(f"no benchmarks shared between {key!r} and {previous!r}")

regressions = []
print(f"comparing {len(shared)} benchmarks: {key} (current) vs {previous} (previous)")
for name in shared:
    now, then = current_set[name], previous_set[name]
    change = (now - then) / then * 100.0
    marker = ""
    if change > threshold:
        marker = f"  <-- REGRESSION (> {threshold:.0f}%)"
        regressions.append((name, change))
    print(f"  {name:<55} {then:>14.2f} -> {now:>14.2f} ns/iter  {change:+7.1f}%{marker}")
only_new = sorted(set(current_set) - set(previous_set))
if only_new:
    print(f"new benchmarks (no history yet): {', '.join(only_new)}")

if regressions:
    print(f"\nFAIL: {len(regressions)} mean regression(s) beyond {threshold:.0f}%:")
    for name, change in regressions:
        print(f"  {name}: {change:+.1f}%")
    sys.exit(1)
print(f"\nperf-check passed: no mean regression beyond {threshold:.0f}%")
PYEOF
    exit 0
fi

if [[ "${1:-}" == "soak" ]]; then
    # The million-scenario streaming campaign is #[ignore]d in the default
    # test run (minutes of wall clock); this mode is its home in CI.
    step "soak: million-scenario streaming campaign (release, -- --ignored)"
    cargo test --release -q -p automotive-cps --test robustness_campaign -- --ignored
    echo
    echo "soak passed."
    exit 0
fi

step "cargo build --release (workspace)"
cargo build --release --workspace

step "cargo test -q (workspace)"
cargo test -q --workspace

# The exact-allocator oracle suite is the safety net behind every optimality
# claim in the repo, and the robustness-campaign suite behind every
# fault-injection/determinism claim; fail loudly if either ever stops being
# collected (renamed target, filtered out, accidentally deleted) instead of
# silently passing.
step "oracle suite is collected (tests/allocation_optimal.rs)"
# (plain grep, not -q: early exit would break the pipe under pipefail)
if ! cargo test -q -p automotive-cps --test allocation_optimal -- --list \
        | grep ": test" > /dev/null; then
    echo "ERROR: the allocation_optimal oracle suite was skipped or is empty" >&2
    exit 1
fi

# The portfolio regression suite carries the parallel allocator's
# determinism contract (bit-identical optima for every worker count) and
# the committed node-count fixture; same reasoning, same gate.
step "portfolio suite is collected (tests/allocation_portfolio.rs)"
if ! cargo test -q -p automotive-cps --test allocation_portfolio -- --list \
        | grep ": test" > /dev/null; then
    echo "ERROR: the allocation_portfolio regression suite was skipped or is empty" >&2
    exit 1
fi

# The characterisation parity suite pins the one-pass dwell/wait sweep
# (shared ET prefix, plant-row tail bound) bit-identical to the full-horizon
# reference curves every Table-I row is derived from; same reasoning, same
# gate.
step "characterisation parity suite is collected (tests/characterization_parity.rs)"
parity_tests="$(cargo test -q -p automotive-cps --test characterization_parity -- --list)"
if ! grep ": test" > /dev/null <<<"$parity_tests"; then
    echo "ERROR: the characterization_parity suite was skipped or is empty" >&2
    exit 1
fi
# The random-pair proptest is the case that crosses the settle engine's
# storage dispatch (augmented orders 1-6 on stack arrays, pooled buffers
# above), so it is gated by name.
if ! grep "random_stable_pairs_match_reference: test" > /dev/null <<<"$parity_tests"; then
    echo "ERROR: characterization_parity lost random_stable_pairs_match_reference" >&2
    exit 1
fi

step "campaign/fault suite is collected (tests/robustness_campaign.rs, tests/zero_alloc.rs)"
campaign_tests="$(cargo test -q -p automotive-cps --test robustness_campaign -- --list)"
if ! grep ": test" > /dev/null <<<"$campaign_tests"; then
    echo "ERROR: the robustness_campaign suite was skipped or is empty" >&2
    exit 1
fi
# The campaign folds each window of pool results in scenario order; these
# parity tests are what pin CampaignStats bit for bit across worker counts,
# chunk sizes and window boundaries, so they are gated by name.
for name in campaign_stats_are_bit_identical_across_worker_counts \
        stormy_campaign_stats_are_bit_identical_across_worker_counts \
        multi_window_campaign_stats_are_bit_identical_across_geometries; do
    if ! grep "^$name: test" > /dev/null <<<"$campaign_tests"; then
        echo "ERROR: robustness_campaign lost $name" >&2
        exit 1
    fi
done
if ! cargo test -q -p automotive-cps --test zero_alloc -- --list \
        | grep ": test" > /dev/null; then
    echo "ERROR: the zero_alloc suite was skipped or is empty" >&2
    exit 1
fi

# The dense FlexRay bus is pinned call for call to the reference model kept
# under cfg(test) in crates/flexray/src/bus/reference.rs; every campaign and
# the golden fixture rest on that equivalence, so its proptest must stay
# collected.
step "bus reference-equivalence proptest is collected (cps-flexray)"
if ! cargo test -q -p cps-flexray -- --list | grep "reference.*: test" > /dev/null; then
    echo "ERROR: the cps-flexray reference-equivalence proptest was skipped or is empty" >&2
    exit 1
fi

# The greedy packing judges candidate slots with the allocation-free verdict
# and is pinned, slot map for slot map and error for error, to the
# analyze_slot_with-based loop kept under cfg(test) in
# crates/sched/src/allocation.rs; every greedy incumbent, restart and slot-map
# sweep rests on that equivalence, so its parity proptest must stay collected.
step "greedy reference-equivalence proptest is collected (cps-sched)"
if ! cargo test -q -p cps-sched -- --list \
        | grep "allocation::reference::tests::greedy_matches_reference_on_random_fleets: test" \
        > /dev/null; then
    echo "ERROR: the cps-sched greedy reference-equivalence proptest was skipped or is empty" >&2
    exit 1
fi

# The pruned dwell-model fit is pinned bit for bit to the exhaustive fit
# kept under cfg(test) in crates/core/src/characterize/reference.rs; every
# Table-I row the designer derives rests on that equivalence, so its parity
# suite must stay collected.
step "fit reference-equivalence suite is collected (cps-core)"
if ! cargo test -q -p cps-core -- --list | grep "characterize::reference.*: test" > /dev/null; then
    echo "ERROR: the cps-core fit reference-equivalence suite was skipped or is empty" >&2
    exit 1
fi

# The dwell/wait sweep's invariant-ellipsoid exit is exact only while its
# certificate is sound; the cps-control soundness test simulates past every
# state a certificate accepts (random stable loops, near-unit spectral
# radius, ill-conditioned P), so it must stay collected.
step "ellipsoid-certificate soundness test is collected (cps-control)"
if ! cargo test -q -p cps-control -- --list \
        | grep "ellipsoid_certificate_never_admits_a_later_violation: test" > /dev/null; then
    echo "ERROR: the cps-control ellipsoid-certificate soundness test was skipped or is empty" >&2
    exit 1
fi

# The fleet-designer suite carries the design pipeline's determinism
# contract: designed artifacts, timing tables and slot maps bit-identical for
# every worker count, through the two-stage path and through the joined
# synthesis-and-characterisation flow the work-claiming pool runs. Both
# parity tests are gated by name.
step "fleet-designer parity suite is collected (tests/fleet_designer.rs)"
designer_tests="$(cargo test -q -p automotive-cps --test fleet_designer -- --list)"
for parity in designer_is_bit_identical_to_per_app_design_for_any_worker_count \
        joined_design_flow_is_bit_identical_for_any_worker_count; do
    if ! grep "^$parity: test" > /dev/null <<<"$designer_tests"; then
        echo "ERROR: fleet_designer lost $parity" >&2
        exit 1
    fi
done

# The scenario-batch suite carries the parallel scenario engine's
# determinism contract (outcomes independent of the thread count, ragged
# scenario counts included, as a proptest) and pins every scenario kind,
# overrides and a nominal run after them included, to a fresh engine's
# traced run; same reasoning, same gate. Both tests are gated by name.
step "scenario-batch suite is collected (tests/scenario_batch.rs)"
batch_tests="$(cargo test -q -p automotive-cps --test scenario_batch -- --list)"
for name in sixty_four_scenarios_are_thread_count_independent \
        ragged_scenario_counts_match_the_single_thread_run; do
    if ! grep "^$name: test" > /dev/null <<<"$batch_tests"; then
        echo "ERROR: scenario_batch lost $name" >&2
        exit 1
    fi
done

# The design-service suite carries every fail-operational guarantee the serve
# crate makes (bit-identical nominal path, load shedding, panic isolation,
# deterministic chaos replay); same reasoning, same gate. The scenario matrix
# is transport-parameterised (every scenario once over Unix, once over TCP)
# and includes the streaming campaign suite — verify each axis is still
# collected by name, so a refactor can't silently drop a whole transport, the
# streaming coverage or the handler-side cache-hit routing.
step "service suite is collected (tests/design_service.rs: unix + tcp + streaming)"
service_tests="$(cargo test -q -p automotive-cps --test design_service -- --list)"
if ! grep ": test" > /dev/null <<<"$service_tests"; then
    echo "ERROR: the design_service suite was skipped or is empty" >&2
    exit 1
fi
for axis in "_unix: test" "_tcp: test" "streamed_terminal_frame" "dropping_the_stream" "invalid_problem" \
    "cache_hits_are_answered_while_every_worker_is_busy" "worker_faulted_hits_still_run_on_the_worker"; do
    if ! grep -- "$axis" > /dev/null <<<"$service_tests"; then
        echo "ERROR: design_service lost its '$axis' coverage axis" >&2
        exit 1
    fi
done

if [[ "${1:-}" == "quick" ]]; then
    echo "quick mode: skipping docs gate, clippy and bench smoke"
    exit 0
fi

# Docs gate: rustdoc must build warning-free (broken intra-doc links, missing
# docs on public items) and every doctested example must pass — the examples
# in the crate-level docs and on the main entry points cannot rot.
step "docs gate: RUSTDOCFLAGS='-D warnings' cargo doc --no-deps + doctests"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
cargo test -q --workspace --doc

step "cargo clippy -D warnings (workspace, all targets)"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo bench -- --test (smoke: every benchmark body runs once)"
cargo bench -p cps-bench -- --test

echo
echo "CI pipeline passed."
