"""Determinism lint: rule families, suppressions, and the repo-wide gate."""

import textwrap
from pathlib import Path

import pytest

from repro.analyze.lint import (
    default_lint_root,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.validate.findings import Severity


def lint(code):
    return lint_source(textwrap.dedent(code), path="probe.py")


def tags(findings):
    return [f.tag for f in findings]


class TestRepoGate:
    def test_default_root_is_src_repro(self):
        root = default_lint_root()
        assert root.name == "repro"
        assert (root / "analyze" / "lint.py").exists()

    def test_src_repro_is_clean(self):
        report = lint_paths()
        assert not report.errors, report.format("unsuppressed lint errors")
        assert not report.warnings, report.format("unsuppressed lint warnings")


class TestUnseededRandom:
    def test_scheduler_with_injected_random_is_flagged(self, tmp_path):
        # The acceptance scenario: a deliberate random.random() seeded into
        # a scratch copy of the hot scheduler must be caught.
        original = default_lint_root() / "sim" / "scheduler.py"
        scratch = tmp_path / "scheduler.py"
        scratch.write_text(
            original.read_text()
            + "\n\nimport random\n\n"
              "def _scratch_tiebreak() -> float:\n"
              "    return random.random()\n")
        findings = lint_file(scratch)
        assert "unseeded-random" in tags(findings)
        hit = next(f for f in findings if f.tag == "unseeded-random")
        assert hit.severity is Severity.ERROR
        assert str(scratch) == hit.path
        # The pristine copy stays clean.
        assert not lint_file(original)

    def test_module_level_rng_call(self):
        findings = lint("""
            import random
            x = random.randint(0, 7)
        """)
        assert tags(findings) == ["unseeded-random"]

    def test_aliased_import_still_caught(self):
        findings = lint("""
            import random as rnd
            rnd.shuffle([1, 2])
        """)
        assert tags(findings) == ["unseeded-random"]

    def test_from_import_of_global_rng(self):
        findings = lint("from random import choice\n")
        assert tags(findings) == ["unseeded-random"]

    def test_seeded_instance_is_sanctioned(self):
        findings = lint("""
            import random
            rng = random.Random(42)
            x = rng.random()
        """)
        assert findings == []


class TestNumpyRandom:
    def test_global_draw_through_numpy_alias(self):
        findings = lint("""
            import numpy as np
            x = np.random.rand(4)
        """)
        assert tags(findings) == ["unseeded-random"]

    def test_global_draw_through_numpy_random_alias(self):
        findings = lint("""
            import numpy.random as npr
            x = npr.randint(0, 7)
        """)
        assert tags(findings) == ["unseeded-random"]

    def test_from_numpy_import_random(self):
        findings = lint("""
            from numpy import random
            random.seed(0)
        """)
        # Even seeding the legacy global RNG is process-global state.
        assert tags(findings) == ["unseeded-random"]

    def test_from_import_of_global_draw(self):
        findings = lint("from numpy.random import rand\n")
        assert tags(findings) == ["unseeded-random"]

    def test_seeded_generator_is_sanctioned(self):
        findings = lint("""
            import numpy as np
            rng = np.random.default_rng(42)
            x = rng.integers(0, 7)
        """)
        assert findings == []

    def test_explicit_bit_generator_is_sanctioned(self):
        findings = lint("""
            import numpy as np
            rng = np.random.Generator(np.random.PCG64(7))
        """)
        assert findings == []

    def test_zero_arg_default_rng_is_flagged(self):
        findings = lint("""
            import numpy as np
            rng = np.random.default_rng()
        """)
        assert tags(findings) == ["unseeded-random"]

    def test_zero_arg_imported_constructor_is_flagged(self):
        findings = lint("""
            from numpy.random import default_rng as rng_maker
            rng = rng_maker()
        """)
        assert tags(findings) == ["unseeded-random"]

    def test_seeded_imported_constructor_is_sanctioned(self):
        findings = lint("""
            from numpy.random import default_rng
            rng = default_rng(1234)
        """)
        assert findings == []

    def test_stateless_ufuncs_produce_no_findings(self):
        # Pure array ops draw no randomness.
        findings = lint("""
            import numpy as np

            def gather(table, trace):
                arr = np.asarray(table, dtype=object)
                return arr.take(trace).tolist()
        """)
        assert findings == []


class TestWallClock:
    def test_time_time(self):
        findings = lint("""
            import time
            t = time.time()
        """)
        assert tags(findings) == ["wall-clock"]

    def test_perf_counter(self):
        findings = lint("""
            import time
            t = time.perf_counter()
        """)
        assert tags(findings) == ["wall-clock"]

    def test_datetime_two_level(self):
        findings = lint("""
            import datetime
            t = datetime.datetime.now()
        """)
        assert tags(findings) == ["wall-clock"]

    def test_time_sleep_is_not_a_clock_read(self):
        findings = lint("""
            import time
            time.sleep(0.1)
        """)
        assert findings == []


class TestSetIteration:
    def test_for_over_set_literal(self):
        findings = lint("""
            for x in {1, 2, 3}:
                print(x)
        """)
        assert tags(findings) == ["set-iteration"]

    def test_comprehension_over_set_call(self):
        findings = lint("ys = [y for y in set(range(4))]\n")
        assert tags(findings) == ["set-iteration"]

    def test_named_set_variable(self):
        findings = lint("""
            pending = set()
            for item in pending:
                print(item)
        """)
        assert tags(findings) == ["set-iteration"]

    def test_sorted_set_is_fine(self):
        findings = lint("""
            pending = set()
            for item in sorted(pending):
                print(item)
        """)
        assert findings == []

    def test_dict_iteration_is_fine(self):
        findings = lint("""
            d = {}
            for key in d:
                print(key)
        """)
        # dict iteration is insertion-ordered; only the module-state rule
        # could speak up, and nothing mutates d.
        assert findings == []


class TestModuleState:
    CODE = """
        _CACHE = {}

        def remember(key, value):
            _CACHE[key] = value
    """

    def test_mutated_module_dict_is_a_warning(self):
        findings = lint(self.CODE)
        assert tags(findings) == ["module-state"]
        assert findings[0].severity is Severity.WARNING

    def test_unmutated_module_dict_is_fine(self):
        findings = lint("""
            _TABLE = {"a": 1}

            def lookup(key):
                return _TABLE[key]
        """)
        assert findings == []


class TestSuppression:
    def test_tagged_allow(self):
        findings = lint("""
            pending = set()
            for item in pending:  # lint: allow[set-iteration]
                print(item)
        """)
        assert findings == []

    def test_bare_allow(self):
        findings = lint("""
            _MEMO = {}  # lint: allow

            def put(k, v):
                _MEMO[k] = v
        """)
        assert findings == []

    def test_wall_clock_allow_is_audited_by_path(self):
        """A suppressed wall-clock read is only truly allowed inside the
        sanctioned clock module; elsewhere the suppression itself is the
        finding (wall-clock-allowance, see tests/test_obs_spans.py)."""
        code = textwrap.dedent("""
            import time
            t = time.time()  # lint: allow[wall-clock]
        """)
        assert lint_source(code, path="src/repro/obs/clock.py") == []
        assert tags(lint_source(code, path="probe.py")) == \
            ["wall-clock-allowance"]

    def test_wrong_tag_does_not_suppress(self):
        findings = lint("""
            import time
            t = time.time()  # lint: allow[set-iteration]
        """)
        assert tags(findings) == ["wall-clock"]

    def test_module_state_suppressed_at_definition(self):
        findings = lint("""
            _MEMO = {}  # lint: allow[module-state]

            def put(k, v):
                _MEMO[k] = v
        """)
        assert findings == []


class TestMechanics:
    def test_syntax_error_is_reported_not_raised(self):
        findings = lint("def broken(:\n")
        assert tags(findings) == ["syntax-error"]
        assert findings[0].severity is Severity.ERROR

    def test_lint_paths_accepts_a_single_file(self, tmp_path):
        probe = tmp_path / "probe.py"
        probe.write_text("import random\nx = random.random()\n")
        report = lint_paths([probe])
        assert [f.tag for f in report.errors] == ["unseeded-random"]

    def test_findings_carry_line_numbers(self):
        findings = lint("""
            import time

            t = time.time()
        """)
        assert findings[0].line == 4
