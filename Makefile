# FineReg reproduction — common developer targets.

PYTHON ?= python
SCALE ?= small

.PHONY: install test report analyze analyze-effects typecheck trace \
	obs-report clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || \
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-out:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

# Every table and figure plus its shape claims (exit 1 if a claim fails).
report:
	$(PYTHON) -m repro.experiments.run_all --scale $(SCALE) --out results

# Static kernel verifier + determinism lint + effects audit + self-tests
# (docs/ANALYZE.md).
analyze:
	PYTHONPATH=src $(PYTHON) -m repro analyze --suite --lint --effects \
		--self-test

# Engine-equivalence effects audit alone, strict (warnings fail too).
analyze-effects:
	PYTHONPATH=src $(PYTHON) -m repro analyze --effects --strict

# mypy strict-equivalent on repro.core / repro.isa / repro.analyze plus the
# engine seam (repro.sim.backend / repro.sim.launch); config: pyproject.toml.
# Skips gracefully when mypy is not installed, so offline checkouts can
# still run the rest of the targets.
typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy src/repro/core src/repro/isa src/repro/analyze \
			src/repro/sim/backend.py src/repro/sim/launch.py; \
	else \
		echo "typecheck: mypy not installed, skipping (pip install mypy)"; \
	fi

# Traced tiny simulation with Perfetto + timeline export (docs/TELEMETRY.md).
# Override APP / POLICY to trace something else: make trace APP=LB POLICY=baseline
APP ?= KM
POLICY ?= finereg
trace:
	PYTHONPATH=src $(PYTHON) -m repro trace $(APP) --policy $(POLICY) \
		--scale tiny \
		--perfetto results/trace-$(APP)-$(POLICY).json \
		--timeline results/timeline-$(APP)-$(POLICY).json

# Observed campaign: JSONL event log + live progress, then the log
# summary ("Orchestration observability" in docs/TELEMETRY.md).
obs-report:
	REPRO_OBS=1 PYTHONPATH=src $(PYTHON) -m repro.experiments.run_all \
		--scale $(SCALE) --out results --progress
	PYTHONPATH=src $(PYTHON) -m repro obs summarize results/obs.jsonl

clean:
	rm -rf .pytest_cache results/REPORT.md
	find . -name __pycache__ -type d -exec rm -rf {} +
