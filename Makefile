# Convenience targets; the package is never pip-installed, so every
# python invocation rides PYTHONPATH=src.

PYTHON ?= python
PYTHONPATH_SRC := PYTHONPATH=src

.PHONY: test lint bench bench-smoke bench-analysis bench-scale check

test:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest -x -q

# Static checks via ruff (configured in pyproject.toml).  The lab image
# doesn't bundle ruff and installing deps is off the table there, so the
# target degrades to a note instead of failing the whole gate; CI
# installs `.[dev]` and gets the real check.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests scripts; \
	else \
		echo "note: ruff not installed (pip install -e '.[dev]'); skipping lint"; \
	fi

# Full throughput benchmark; rewrites BENCH_campaign.json (~60 s).
bench:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.cli bench

# ~30 s determinism smoke: tiny campaign, serial vs sharded hashes
# must match; never touches the tracked BENCH_campaign.json.
bench-smoke:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.cli bench --smoke

# Analysis fast-path smoke: fused table+figure regeneration vs the
# reference per-function walks; fails if output is not byte-identical.
bench-analysis:
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.cli bench --analysis

# Streaming-scale smoke (~60 s): a device_scale=10 campaign (10x the
# paper's population) through the sharded executor's streaming merge,
# asserting the parent packages it under a fixed memory bound — then
# the same campaign with the analysis accumulator riding the merge
# (the pipelined campaign→report path), under its own aggregate-domain
# bound, hash-checked against the merge-only run and rendering the
# full report with zero archive re-read.
bench-scale:
	$(PYTHONPATH_SRC) $(PYTHON) scripts/bench_scale.py

# The pre-merge gate: determinism + analysis smokes via the CLI, then
# the bench_check script (tier-1 suite + campaign smoke + sharded
# regression + the DNS/serializer and analysis fast-path gates + the
# pipelined campaign→report gate against the committed
# BENCH_campaign.json).
check: bench-smoke bench-analysis
	$(PYTHON) scripts/bench_check.py
