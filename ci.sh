#!/usr/bin/env sh
# Hermetic CI gate. The workspace has zero external dependencies, so the
# whole pipeline runs with --offline against the committed Cargo.lock —
# no registry, no network, no vendor directory.
#
# Usage: ./ci.sh            the whole gate
#        ./ci.sh --mutants  only the mutation gate (see below)
set -eu

cd "$(dirname "$0")"

# The clippy line, shared by the gate below and the mutation gate's clippy
# target. Clippy sees the libraries, binaries and bench targets (a lib is
# a bench target too, so its #[cfg(test)] modules are checked), each crate
# under the disallowed-* bans of the clippy.toml nearest to it: the root
# one, or crates/testkit's or crates/bench's relaxed subset. -D warnings
# fails an unfulfilled #[expect]; the allow_attributes lints require every
# suppression to be an #[expect] with a reason; ref_as_ptr and
# borrow_as_ptr ban reading an address through a reference cast.
# tests/ and examples/ are out of scope. Callers pass the package
# selection (--workspace or -p <package>).
clippy_line() {
    cargo clippy --lib --bins --benches --locked --offline "$@" -- -D warnings \
        -D clippy::allow_attributes -D clippy::allow_attributes_without_reason \
        -D clippy::ref_as_ptr -D clippy::borrow_as_ptr
}

if [ "${1:-}" = "--mutants" ]; then
    echo "== mutants (each tests/mutants/*.patch applied alone to a copy of the tree: the test or clippy ban its header names must fail; debug build, so overflow checks are on) =="
    # A patch's header names the package, the cargo test target and the
    # test-name filter expected to fail, run at the default property case
    # count. Target `clippy` instead runs the clippy line on the package,
    # which must fail with the filter text in its output (the ban's own
    # message, so an unrelated warning cannot kill the mutant); such a
    # patch must still pass `cargo check`. A patch that no longer applies
    # or no longer compiles is rot, and rot fails the gate like a
    # survivor: whoever moved the code re-records the mutant or deletes it
    # with the test it guarded. The copy and its build live under
    # target/mutants; git apply runs with the repository out of sight, so
    # the patch paths resolve in the copy.
    tree=target/mutants/tree
    rm -rf "$tree"
    mkdir -p "$tree"
    tar --exclude=./target --exclude=./perfbench --exclude=./.git --exclude=./.bench_build \
        -cf - . | tar -xf - -C "$tree"
    export CARGO_TARGET_DIR="$PWD/target/mutants/target"
    export GIT_CEILING_DIRECTORIES="$PWD/target/mutants"
    start=$(date +%s)
    if ! (cd "$tree" && cargo test -q --locked --offline -p haec-core -p haec-sim -p haec --no-run); then
        echo "ci: the unmutated copy under $tree does not build" >&2
        exit 1
    fi
    if ! (cd "$tree" && clippy_line --workspace -q); then
        echo "ci: the unmutated copy under $tree is not clippy-clean" >&2
        exit 1
    fi
    echo "unmutated build: $(($(date +%s) - start))s"
    clippy_out="$PWD/target/mutants/clippy.out"
    failed=0
    for patch in "$PWD"/tests/mutants/*.patch; do
        name=$(basename "$patch" .patch)
        pkg=$(sed -n 's/^# package: //p' "$patch")
        target=$(sed -n 's/^# target: //p' "$patch")
        filter=$(sed -n 's/^# filter: //p' "$patch")
        t0=$(date +%s)
        if ! (cd "$tree" && git apply "$patch" 2> /dev/null); then
            echo "$name: ROT, no longer applies"
            failed=1
            continue
        fi
        if [ "$target" = clippy ]; then
            if ! (cd "$tree" && cargo check -q --locked --offline -p "$pkg" --lib --bins --benches 2> /dev/null); then
                verdict="ROT, no longer compiles"
                failed=1
            elif (cd "$tree" && clippy_line -p "$pkg" -q > "$clippy_out" 2>&1); then
                verdict="SURVIVED"
                failed=1
            elif ! grep -qF -- "$filter" "$clippy_out"; then
                verdict="SURVIVED (clippy failed without naming the filter)"
                failed=1
            else
                verdict="killed"
            fi
        # $target is two words or one: split on purpose.
        elif ! (cd "$tree" && cargo test -q --locked --offline -p "$pkg" $target --no-run 2> /dev/null); then
            verdict="ROT, no longer compiles"
            failed=1
        elif (cd "$tree" && cargo test -q --locked --offline -p "$pkg" $target "$filter" > /dev/null 2>&1); then
            verdict="SURVIVED (or the filter names no test)"
            failed=1
        else
            verdict="killed"
        fi
        (cd "$tree" && git apply -R "$patch")
        echo "$name: $verdict by -p $pkg $target $filter ($(($(date +%s) - t0))s)"
    done
    total=$(($(date +%s) - start))
    echo "mutants: ${total}s in all"
    if [ "$failed" != 0 ]; then
        echo "ci: a mutant survived or rotted" >&2
        exit 1
    fi
    if [ "$total" -ge 120 ]; then
        echo "ci: the mutation gate exceeded its 120s budget" >&2
        exit 1
    fi
    echo "ci: mutants ok"
    exit 0
fi

echo "== build (release, locked, offline) =="
cargo build --release --locked --offline

echo "== default-members (every workspace member is a default member, so the plain cargo test below, the tier-1 command, runs every crate's tests) =="
meta=$(cargo metadata --format-version 1 --no-deps --locked --offline)
ids() { printf '%s' "$meta" | sed "s/.*\"$1\":\[\([^]]*\)\].*/\1/" | tr ',' '\n' | sort; }
[ "$(ids workspace_members)" = "$(ids workspace_default_members)" ] || {
    echo "ci: a workspace member is missing from default-members in Cargo.toml" >&2
    exit 1
}

echo "== test (the tier-1 command; locked, offline) =="
cargo test -q --locked --offline

echo "== corrupt-payload property at 2048 cases (no store panics or aborts on a corrupt payload, the engine-backed ones apply none of it; default seed, so a failure replays) =="
# The 64-case default rarely lands noise on a count field; at 2048 cases
# the oversized-count and out-of-range-id paths of every decoder are hit.
HAEC_PROP_CASES=2048 cargo test -q --locked --offline --test properties \
    corrupt_payloads_never_panic_a_store

echo "== block-skip properties at 2048 cases (witness consumers that jump over the known prefix in 16-dot blocks agree with their per-dot definitions: Dot::run_within, StreamChecker ingest, the service driver's delta; release build, so the vectorised scan is the one checked; default seed, so a failure replays) =="
# At 64 cases few lists put a planted seq-0, unissued or out-of-range dot
# inside a block that would otherwise be skipped; at 2048 every planted
# fault lands there many times, in prefixes of 0..33 and of thousands.
HAEC_PROP_CASES=2048 cargo test -q --release --locked --offline \
    -p haec-model -p haec-core -p haec-sim --lib block_skip

echo "== witness-log oracle properties at 2048 cases (the abstract execution kept per step — WitnessLog fed hostile witnesses and truncated at random in haec-core, Simulator::abstract_execution under do/flush/deliver/drop/duplicate with undo_step and snapshot/restore in haec-sim — equals abstract_from_witness_ordered on the identity order, Ok or Err, after every step; release build; default seed, so a failure replays) =="
# At 64 cases few walks poison the log and then truncate back across the
# poisoned position, or cross 64 and 128 events with a read-prefix edge
# in the new word; at 2048 each happens hundreds of times.
HAEC_PROP_CASES=2048 cargo test -q --release --locked --offline \
    -p haec-core -p haec-sim --lib witness_log_agrees_with_the_batch_builder

echo "== memo oracle property at 2048 cases (the explorer's flat dedup table agrees with a BTreeMap model under random gets and first-write-wins inserts: equal fingerprints at different depths, keys sharing the part and start-slot bits, growth across several doublings, usize::MAX depths; the barrier-merge iterator yields every entry once; release build; default seed, so a failure replays) =="
# At 64 cases a shared-bits probe run rarely crosses more than four
# doublings at one depth; at 2048 the longest runs cross five or six.
HAEC_PROP_CASES=2048 cargo test -q --release --locked --offline \
    -p haec-sim --lib memo_agrees_with_a_btreemap_model

echo "== entrant-only scan property at 2048 cases (StreamChecker's causal and session scans, which test only the events that enter P(t) at t, keep the same running first violations after every push as full scans over pvec and pending, and in exact mode as the batch checkers; release build; default seed, so a failure replays) =="
# Random dot subsets, advancing prefixes with holes and single recent dots
# over 1..5 replicas, gc_window off, tiny and mid; the property asserts
# its own share of feeds that end with each kind of violation on record.
HAEC_PROP_CASES=2048 cargo test -q --release --locked --offline \
    -p haec-core --lib entrant_only_scans

echo "== usize::MAX windows in release (the batch and streaming checkers' window arithmetic saturates; the workspace test run above checks it with overflow checks on, this one without) =="
cargo test -q --release --locked --offline -p haec-core --lib saturat

echo "== perfbench (outside the workspace: compile the frozen benchmark surface, run its unit tests) =="
# BENCHMARK.json's program builds against explore_all, the
# ExhaustiveConfig/ExhaustiveReport field lists, run_service and
# StreamChecker; the workspace build above never sees it, so an API
# change that breaks the benchmark would otherwise ship green. Not
# --locked: perfbench/Cargo.lock is generated, not committed.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "== clippy (the determinism bans of clippy.toml and every suppression an #[expect] with a reason; locked, offline, deny warnings) =="
# A clippy.toml path that names no item is only a warning, even under
# -D warnings, and a misspelt entry would lift its ban in silence.
clippy_line --workspace 2> target/clippy.log || { cat target/clippy.log >&2; exit 1; }
if grep -q 'does not refer to' target/clippy.log; then
    cat target/clippy.log >&2
    echo "ci: a clippy.toml path does not resolve" >&2
    exit 1
fi

echo "== rustdoc (locked, offline, deny warnings: no dangling or private intra-doc link) =="
# A renamed or removed entry point leaves [`old_name`] links behind in
# module docs that no compiler pass reads; rustdoc is the one that does.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked --offline

echo "== report smoke (fixed seed, JSON must re-parse) =="
cargo run -q --release --locked --offline -p haec-bench --bin report -- \
    --json --check --seed 42 > /dev/null

echo "== fmt =="
cargo fmt --check

echo "== non-test lines per crate (informational, gates nothing: lines above each file's first #[cfg(test)] under crates/*/src, per crate and summed, then the same count over the bench targets under crates/*/benches, outside the sum; the counts simplicity PRs quote before and after) =="
non_test() {
    find "$@" -name '*.rs' -exec awk \
        'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }' {} +
}
total=0
for src in crates/*/src; do
    n=$(non_test "$src")
    printf '%-16s %6d\n' "${src%/src}" "$n"
    total=$((total + n))
done
printf '%-16s %6d\n' workspace "$total"
printf '%-16s %6d\n' 'crates/*/benches' "$(non_test crates/*/benches)"

echo "== pub fns nobody names (informational, gates nothing: a pub fn under crates/*/src whose name occurs exactly once in crates src tests examples perfbench/src — its own definition; the list the no-caller audits start from, and it misses a name that is also defined or mentioned elsewhere) =="
find crates src tests examples perfbench/src -name '*.rs' -exec cat {} + |
    tr -cs 'A-Za-z0-9_' '\n' | sort | uniq -c | awk '$1 == 1 { print $2 }' > target/named-once
grep -rnoE 'pub fn [A-Za-z0-9_]+' crates/*/src |
    awk -F'pub fn ' 'NR == FNR { once[$1]; next } $2 in once' target/named-once -

echo "ci: ok"
