#!/usr/bin/env sh
# Full verification gate: release build, offline test suite, the
# fault-injection suites run explicitly, and warning-free clippy across
# the workspace.
set -eu

cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
# Tier-1 above covers the root package only; this covers every crate's
# --lib suite too (for example the obs service's shutdown test).
cargo test -q --workspace

# Failure-path suites, named explicitly so a regression in the
# fault-tolerant pipeline fails loudly even if test discovery changes:
# decoder hardening (no corrupted buffer may panic try_replay), grain
# panic isolation / budgets, and the facade-level error taxonomy.
cargo test -q -p reuselens-trace --test fault_injection
cargo test -q -p reuselens-core --test degradation
cargo test -q --test fault_tolerance

# Differential/property suites, named explicitly for the same reason: the
# analyzer-vs-oracle property suite, the model-vs-simulator differential
# suite, the obs does-not-change-results identity suite (now also the
# timeline/GrainProfile/counter reconciliation), and the exporter
# golden snapshots.
cargo test -q -p reuselens-core --test property_oracle
# Lowered capture vs the tree-walking oracle kept in the test: byte-equal
# traces, equal reports and errors on random programs and every workload
# model, and the encoder-side seal agreeing with a full validate.
cargo test -q -p reuselens-trace --test capture_identity
# Direct per-grain execution vs capture + replay + attribution: equal
# profiles, ExecReport and HierarchyReport (exact, fixed-rate, adaptive)
# on Sweep3D, GTC and random-gather, and the same ExecError on a fault.
cargo test -q --test capture_replay_golden
cargo test -q -p reuselens-core --test partition_identity
cargo test -q -p reuselens-cache --test model_vs_sim
cargo test -q --test obs_identity
cargo test -q -p reuselens-obs --test exporter_golden

# Live telemetry service suite: /metrics byte-identity with the exporter,
# /healthz progress JSON, /timeline live snapshots, aggregator survival
# under concurrent recorder install/uninstall, typed JSONL event fields,
# and heartbeat emission.
#
# Timeline + bench-harness suites: ring-buffer overflow/concurrency/
# mid-run install semantics, the byte-exact Chrome trace golden, and the
# bench report/JSON layer (including the regression trip-wire test).
#
# Repeat-run check: the two concurrency suites run three times each at the
# default test parallelism, so a flake that passes now and then still
# fails the gate. (daemon_stress joins once its global-recorder flake is
# fixed.)
for _ in 1 2 3; do
    cargo test -q -p reuselens-obs --test service_live
    cargo test -q -p reuselens-obs --test timeline_ring
done
cargo test -q -p reuselens-obs --test timeline_golden
cargo test -q -p reuselens-bench --lib

# Sampled-analysis accuracy contract: the statistical bands on the
# sampled engine's histograms and on the downstream miss predictions
# (both suites document and enforce the README's stated bands), plus the
# rate-1.0 / exact bit-identity proofs they contain. The bench-runner
# smoke below also exercises the sampled rung end to end.
cargo test -q -p reuselens-core --test sampling_accuracy
cargo test -q -p reuselens-cache --test sampled_miss_bounds

# Static-estimation accuracy contract: the zero-trace symbolic estimator's
# per-level miss predictions against the exact dynamic engine on Sweep3D,
# GTC, and the synthetic affine ladder (three sizes each), plus the
# zero-trace-events and indirect-fallback proofs. Enforces the bands
# quoted in README "Predicting without tracing" / DESIGN §4.13.
cargo test -q --test static_vs_dynamic

# Crash-safety suite: bit-identical checkpoint/resume, recovery from a
# snapshot torn at every byte boundary, typed rejection of corrupted
# files, and checkpoint-counter reconciliation against the files on disk.
cargo test -q -p reuselens-core --test checkpoint_resume

# Daemon + trace-store batteries (DESIGN §4.15), named explicitly:
# stored-trace replay bit-identity across workloads/grains/sampling/
# threads, every-truncation + every-bit-flip corruption detection over
# segment and index files, protocol fuzz (hostile request lines always
# answer typed, daemon never dies), and the multi-client concurrency
# stress with counter/JSONL/completion-record reconciliation.
cargo test -q --test store_identity
cargo test -q --test store_corruption
cargo test -q --test protocol_fuzz
cargo test -q --test daemon_stress

cargo clippy --workspace --all-targets --no-deps -- -D warnings
# Rustdoc gate: a broken or private intra-doc link fails the build, so a
# deleted or renamed item cannot leave dangling references in the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Kill-and-resume CLI smoke: a checkpointed run whose newest snapshot is
# then torn mid-file must resume to a profile byte-identical to a plain
# run's. Exercises --checkpoint-dir/--checkpoint-every/--resume end to
# end, including fallback past the torn file.
CKPT_TMP="target/verify-ckpt"
rm -rf "$CKPT_TMP" && mkdir -p "$CKPT_TMP"
./target/release/reuselens kernel stream \
    --save-profile "$CKPT_TMP/plain.rlp" >/dev/null
./target/release/reuselens kernel stream \
    --checkpoint-dir "$CKPT_TMP/snaps" --checkpoint-every 10000 \
    --save-profile "$CKPT_TMP/ckpt.rlp" >/dev/null
newest=$(ls "$CKPT_TMP/snaps"/*.rlsnap | sort | tail -n 1)
head -c 13 "$newest" > "$newest.torn" && mv "$newest.torn" "$newest"
./target/release/reuselens kernel stream \
    --checkpoint-dir "$CKPT_TMP/snaps" --checkpoint-every 10000 --resume \
    --save-profile "$CKPT_TMP/resumed.rlp" >/dev/null
cmp "$CKPT_TMP/plain.rlp" "$CKPT_TMP/ckpt.rlp"
cmp "$CKPT_TMP/plain.rlp" "$CKPT_TMP/resumed.rlp"
rm -rf "$CKPT_TMP"

# Live-telemetry CLI smoke: a run with --serve-metrics must answer
# /metrics, /healthz, and /timeline over plain HTTP while (or just after)
# analyzing, then exit cleanly. The port is OS-assigned; the bound
# address is scraped from the stderr banner.
SRV_TMP="target/verify-serve"
rm -rf "$SRV_TMP" && mkdir -p "$SRV_TMP"
./target/release/reuselens sweep3d --mesh 48 \
    --serve-metrics 127.0.0.1:0 --heartbeat 0.5 \
    --log-jsonl "$SRV_TMP/events.jsonl" \
    --save-profile "$SRV_TMP/served.rlp" >/dev/null 2>"$SRV_TMP/stderr.log" &
SRV_PID=$!
addr=""
tries=0
while [ -z "$addr" ] && [ "$tries" -lt 100 ]; do
    addr=$(sed -n 's|^serving telemetry on http://\([^/]*\)/$|\1|p' \
        "$SRV_TMP/stderr.log")
    [ -n "$addr" ] || { tries=$((tries + 1)); sleep 0.1; }
done
[ -n "$addr" ] || { echo "verify: no telemetry banner" >&2; exit 1; }
curl -fsS "http://$addr/metrics" | grep -q '^reuselens_' \
    || { echo "verify: /metrics scrape failed" >&2; exit 1; }
curl -fsS "http://$addr/healthz" | grep -q '"status":"ok"' \
    || { echo "verify: /healthz scrape failed" >&2; exit 1; }
curl -fsS "http://$addr/timeline" >/dev/null \
    || { echo "verify: /timeline scrape failed" >&2; exit 1; }
wait "$SRV_PID"
grep -q '"event":"run_finished"' "$SRV_TMP/events.jsonl" \
    || { echo "verify: JSONL log missing run_finished" >&2; exit 1; }
rm -rf "$SRV_TMP"

# Daemon CLI smoke: start `reuselens serve` over stdin with one worker
# (serial semantics, so the replays see the capture), run a capture and
# two replays saving profiles to disk, and require the two saved profile
# files byte-identical — the stored trace round-trips deterministically.
# EOF on stdin is the clean-shutdown path.
DMN_TMP="target/verify-daemon"
rm -rf "$DMN_TMP" && mkdir -p "$DMN_TMP"
printf '%s\n' \
    '{"kind":"capture","id":"smoke","workload":"sweep3d","mesh":6,"grains":[64]}' \
    '{"kind":"replay","id":"smoke","grains":[64],"save":"target/verify-daemon/a.rlp"}' \
    '{"kind":"replay","id":"smoke","grains":[64],"save":"target/verify-daemon/b.rlp"}' \
    | ./target/release/reuselens serve --store "$DMN_TMP/store" \
        --stdin --workers 1 > "$DMN_TMP/responses.ndjson" 2>/dev/null
[ "$(grep -c '"ok":true' "$DMN_TMP/responses.ndjson")" = 3 ] \
    || { echo "verify: daemon smoke had a failing job" >&2; \
         cat "$DMN_TMP/responses.ndjson" >&2; exit 1; }
cmp "$DMN_TMP/a.rlp" "$DMN_TMP/b.rlp" \
    || { echo "verify: daemon replays disagree" >&2; exit 1; }
rm -rf "$DMN_TMP"

# Informational perf smoke: exercises the bench-runner end to end and
# refreshes a throwaway snapshot, but never gates on machine speed (no
# --baseline here; diff against a committed BENCH_reuselens.json by hand).
cargo run --release -q -p reuselens-bench --bin bench-runner -- \
    --smoke --out target/bench_smoke.json
