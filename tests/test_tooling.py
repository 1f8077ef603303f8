"""The test suite's own configuration, run on probe files in a fresh pytest."""

import pathlib
import tomllib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_a_failing_property_reports_its_example_and_the_run_goes_on(pytester):
    # hypothesis's failure report emits a DeprecationWarning on import; under the
    # project's warnings-as-errors filter that once ended the run with INTERNALERROR,
    # hid the falsifying example and never ran the tests after it
    with open(ROOT / "pyproject.toml", "rb") as fh:
        filters = tomllib.load(fh)["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile("""
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    assert "INTERNALERROR" not in result.stdout.str()
