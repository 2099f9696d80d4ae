# The only definition of every gate: .github/workflows/ci.yml installs
# the toolchain and runs `make <target>`.  `make ci` runs build, tests,
# the format check (when ocamlformat is installed) and every target in
# GATES, which is also the CI `gate` job's matrix.

DUNE ?= dune
NOC := _build/default/bin/noc_tool.exe

# Every recipe line runs as one bash script that stops at the first
# failing command, including a failure inside a pipeline.
SHELL := bash
.SHELLFLAGS := -e -o pipefail -c

GATES := clean-tree bench-gate lint prove trace race-smoke batch-smoke \
  serve-smoke top-smoke sim-smoke

.PHONY: all build test fmt bench ci clean $(GATES)

all: build

build:
	$(DUNE) build

test: build
	$(DUNE) runtest

# .ocamlformat pins a version; skip gracefully where it isn't installed.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  $(DUNE) build @fmt; \
	else \
	  echo "fmt: ocamlformat not installed, skipping"; \
	fi

# Targets whose outputs CI uploads write them to ci-artifacts/<target>/
# (gitignored); this starts that directory afresh.
ARTIFACTS = rm -rf ci-artifacts/$@ && mkdir -p ci-artifacts/$@

# The static-analysis gate: every registry benchmark (each at 14
# switches, one exit code over all six) and the shared job file lint
# clean at error level, and the full-registry SARIF report is
# well-formed.
lint: build
	@$(ARTIFACTS)
	$(NOC) lint --all-benchmarks
	$(NOC) lint test/cli/registry_jobs.json --format=json > /dev/null
	$(NOC) lint --all-benchmarks --format=sarif -o ci-artifacts/$@/lint.sarif
	python3 test/gate_checks.py sarif ci-artifacts/$@/lint.sarif

# The independent-prover gate: the escape-elimination prover must agree
# with Verify.certify on every registry benchmark as-is, and prove every
# removal-prepared design deadlock-free (exit 2 on any disagreement or
# residual deadlock potential).
prove: build
	$(NOC) prove --all-benchmarks
	$(NOC) prove --all-benchmarks --prepare removal --require-free

# The tracing gate: a Chrome trace of D36_8's removal run must load in
# Perfetto (spans nest per thread, removal.run present), and the
# noc-trace/1 stream of the same run must lint clean (NOC-TRC-*).
trace: build
	@$(ARTIFACTS)
	$(NOC) trace -b D36_8 --format chrome -o ci-artifacts/$@/trace.json
	python3 test/gate_checks.py chrome-trace ci-artifacts/$@/trace.json
	$(NOC) trace -b D36_8 --format jsonl -o ci-artifacts/$@/trace.jsonl
	$(NOC) lint ci-artifacts/$@/trace.jsonl

# The race gate, in two parts.  (1) Three 4-domain batches over the
# registry under a tiny minor heap (constant cross-domain GC pressure)
# must print identical reports once wall times are stripped.  (2) 300
# fresh processes, each running a two-domain Pool.run and two concurrent
# Engine.runs (test/race/race_smoke.ml); a process that raises or hangs
# past its timeout is a failure, and 0 failures are required.
race-smoke: build
	@dir="$$(mktemp -d)"; \
	trap 'rm -rf "$$dir"' EXIT; \
	for i in 1 2 3; do \
	  OCAMLRUNPARAM=s=4k $(NOC) batch test/cli/registry_jobs.json -j 4 \
	    | sed -E 's/ +[0-9.]+ ms/ <ms>/g' > "$$dir/run$$i.txt"; \
	done; \
	diff "$$dir/run1.txt" "$$dir/run2.txt"; \
	diff "$$dir/run1.txt" "$$dir/run3.txt"; \
	cat "$$dir/run1.txt"
	@exe=_build/default/test/race/race_smoke.exe; \
	fails=0; \
	for i in $$(seq 1 300); do \
	  timeout 10 "$$exe" || fails=$$((fails + 1)); \
	done; \
	echo "race-smoke: $$fails failures in 300 fresh processes"; \
	[ "$$fails" -eq 0 ]

# The batch gate: a small job file on 2 domains writes a telemetry
# stream whose JSONL envelope is intact.
batch-smoke: build
	@dir="$$(mktemp -d)"; \
	trap 'rm -rf "$$dir"' EXIT; \
	$(NOC) batch test/cli/jobs.json -j 2 --telemetry "$$dir/telemetry.jsonl"; \
	python3 test/gate_checks.py batch-telemetry "$$dir/telemetry.jsonl"

# Shell helpers for the daemon gates: start `noc serve` on $sock with
# the given extra flags and wait for its socket; stop it with SIGTERM,
# requiring a clean drain (exit 0) that unlinks the socket.
DAEMON = dir="$$(mktemp -d)"; \
  sock="$$dir/serve.sock"; \
  trap 'kill "$$server" 2>/dev/null || true; rm -rf "$$dir"' EXIT; \
  start() { \
    $(NOC) serve --socket "$$sock" --store "$$dir/store" -j 2 "$$@" & \
    server=$$!; \
    for i in $$(seq 1 100); do [ -S "$$sock" ] && break; sleep 0.1; done; \
    [ -S "$$sock" ]; \
  }; \
  stop() { kill -TERM "$$server"; wait "$$server"; [ ! -e "$$sock" ]; }

# The daemon gate.  Cold: a fresh daemon reports it is not draining,
# runs the full registry (12 ok) with results equal to `noc_tool batch`
# row for row, drains cleanly, and leaves a trace that lints clean and a
# telemetry stream with both bookends.  Warm: a restarted daemon on the
# same store answers every job from disk (12 warm hits, store hit rate
# 1) with output identical to the cold run.
serve-smoke: build
	@$(ARTIFACTS); \
	art=ci-artifacts/$@; \
	$(DAEMON); \
	rows() { sed -E 's/ +[0-9.]+ ms/ <ms>/g; s/ +\((warm|cache hit)\)//; 12q' "$$1"; }; \
	start --telemetry "$$art/serve-telemetry.jsonl" --trace "$$art/serve-trace.jsonl"; \
	$(NOC) serve-stats --socket "$$sock" > "$$art/stats.txt"; \
	grep -q '^serve_draining 0$$' "$$art/stats.txt"; \
	$(NOC) submit test/cli/registry_jobs.json --socket "$$sock" | tee "$$dir/cold.txt"; \
	$(NOC) batch test/cli/registry_jobs.json > "$$dir/batch.txt"; \
	diff <(rows "$$dir/cold.txt") <(rows "$$dir/batch.txt"); \
	grep -q '12 jobs: 12 ok, 0 failed, 0 rejected, 0 overloaded' "$$dir/cold.txt"; \
	grep -q '12 ok, 0 failed, 0 rejected, 0 overloaded, 0 warm hits' "$$dir/cold.txt"; \
	stop; \
	$(NOC) lint "$$art/serve-trace.jsonl"; \
	python3 test/gate_checks.py serve-telemetry "$$art/serve-telemetry.jsonl"; \
	start; \
	$(NOC) submit test/cli/registry_jobs.json --socket "$$sock" > "$$dir/warm.txt"; \
	grep -q '12 ok, 0 failed, 0 rejected, 0 overloaded, 12 warm hits' "$$dir/warm.txt"; \
	$(NOC) serve-stats --socket "$$sock" > "$$art/stats-warm.txt"; \
	grep -q '^store_hits 12$$' "$$art/stats-warm.txt"; \
	grep -q '^store_misses 0$$' "$$art/stats-warm.txt"; \
	grep -q '^store_hit_rate 1.000000$$' "$$art/stats-warm.txt"; \
	stop; \
	warm_equal() { sed -E 's/ +[0-9.]+ ms/ <ms>/g; s/ +\(warm\)//; s/[0-9]+ warm hits?/W warm hits/' "$$1"; }; \
	diff <(warm_equal "$$dir/cold.txt") <(warm_equal "$$dir/warm.txt"); \
	echo "serve-smoke: OK (submit = batch, clean drain, 100% warm restart)"

# The live-telemetry gate: scrape a daemon's Prometheus listener before
# and after a submission with a known correlation prefix.  Both scrapes
# pass the strict exposition check (`top --raw` validates before
# printing) and plain HTTP; the job counter goes 0 -> 12; the scrape
# counter counts the scrapes; every SLO gauge is green; a `top` frame
# renders; and every correlation id in the telemetry carries the prefix.
top-smoke: build
	@$(ARTIFACTS); \
	art=ci-artifacts/$@; \
	$(DAEMON); \
	counter() { grep -E "^$$1 [0-9]+$$" "$$2" | awk '{print $$2}'; }; \
	start --metrics-addr 9469 --telemetry "$$art/serve-telemetry.jsonl"; \
	$(NOC) top --addr 9469 --raw > "$$art/scrape-1.txt"; \
	curl -sf http://127.0.0.1:9469/metrics > "$$dir/scrape-1-curl.txt"; \
	$(NOC) submit test/cli/registry_jobs.json --socket "$$sock" --corr ci-metrics \
	  > /dev/null; \
	$(NOC) top --socket "$$sock" --once > "$$art/top.txt"; \
	$(NOC) top --addr 9469 --raw > "$$art/scrape-2.txt"; \
	[ "$$(counter noc_serve_jobs_total "$$art/scrape-1.txt")" -eq 0 ]; \
	[ "$$(counter noc_serve_jobs_total "$$art/scrape-2.txt")" -eq 12 ]; \
	[ "$$(counter noc_serve_scrapes_total "$$art/scrape-2.txt")" -ge 2 ]; \
	grep -q 'workers' "$$art/top.txt"; \
	grep -q 'submit' "$$art/top.txt"; \
	grep -q 'noc_slo_ok' "$$art/scrape-2.txt"; \
	if grep -E '^noc_slo_ok\{[^}]*\} 0$$' "$$art/scrape-2.txt"; then \
	  echo "top-smoke: an SLO is burned"; exit 1; \
	fi; \
	stop; \
	python3 test/gate_checks.py corr "$$art/serve-telemetry.jsonl" ci-metrics; \
	echo "top-smoke: OK (scrapes parse, counters count, SLOs green)"

# The simulation gate: sweep the default campaign grid (2 benchmarks x
# 4 workloads x 3 preparations) and check the paper's claim cell by
# cell — the campaign itself exits 2 on any deadlock-freedom violation —
# then resume from the store and require every cell warm and
# bit-identical.
sim-smoke: build
	@$(ARTIFACTS); \
	art=ci-artifacts/$@; \
	dir="$$(mktemp -d)"; \
	trap 'rm -rf "$$dir"' EXIT; \
	$(NOC) campaign --store "$$dir/store" -j 2 \
	  --out "$$art/sim-report.json" --report "$$art/sim-report.md" \
	  | tee "$$dir/cold.txt"; \
	grep -q 'invariants hold' "$$dir/cold.txt"; \
	$(NOC) campaign --store "$$dir/store" -j 2 > "$$dir/warm.txt"; \
	[ "$$(grep -c '^\[' "$$dir/cold.txt")" -eq "$$(grep -c '(warm)$$' "$$dir/warm.txt")" ]; \
	grep '^\[' "$$dir/warm.txt" | sed 's/  (warm)$$//' > "$$dir/warm-cells.txt"; \
	grep '^\[' "$$dir/cold.txt" | diff - "$$dir/warm-cells.txt"; \
	echo "sim-smoke: OK (invariants hold, warm resume bit-identical)"

# No build output or generated report is tracked, `dune build` leaves
# the tree as it found it, and the CI gate matrix names exactly GATES.
clean-tree:
	@if [ -n "$$(git ls-files _build)" ]; then \
	  echo "clean-tree: _build/ artifacts are tracked in git"; \
	  git ls-files _build | head; \
	  exit 1; \
	fi
	@if [ -n "$$(git ls-files lint.sarif trace.json trace.jsonl BENCH_removal.json \
	  BENCH_service.json BENCH_sim.json ci-artifacts)" ]; then \
	  echo "clean-tree: generated reports are tracked in git"; \
	  git ls-files lint.sarif trace.json trace.jsonl BENCH_*.json ci-artifacts; \
	  exit 1; \
	fi
	@matrix="$$(sed -n 's/^ *target: \[\(.*\)\]$$/\1/p' .github/workflows/ci.yml \
	  | tr -d ' ' | tr ',' '\n' | sort)"; \
	gates="$$(echo $(GATES) | tr ' ' '\n' | sort)"; \
	if [ "$$matrix" != "$$gates" ]; then \
	  echo "clean-tree: ci.yml gate matrix differs from the Makefile's GATES"; \
	  diff <(echo "$$matrix") <(echo "$$gates") || true; \
	  exit 1; \
	fi
	@before="$$(git status --porcelain)"; \
	$(DUNE) build; \
	after="$$(git status --porcelain)"; \
	if [ "$$before" != "$$after" ]; then \
	  echo "clean-tree: dune build dirtied the tree"; \
	  echo "$$after"; \
	  exit 1; \
	fi
	@echo "clean-tree: OK"

# Re-measure the benchmarks (write BENCH_*.json, gitignored).
bench:
	$(DUNE) exec bench/main.exe -- removal
	$(DUNE) exec bench/main.exe -- service
	$(DUNE) exec bench/main.exe -- sim

# Compare fresh measurements against the committed baselines; every
# section is judged even after one fails.
bench-gate: bench
	@status=0; \
	for k in removal service sim; do \
	  $(DUNE) exec bench/check_regression.exe -- \
	    bench/baseline/BENCH_$$k.json BENCH_$$k.json || status=1; \
	done; \
	exit $$status

ci: build test fmt $(GATES)

clean:
	$(DUNE) clean
	rm -rf BENCH_removal.json BENCH_service.json BENCH_sim.json ci-artifacts
