"""The test suite's own configuration, run on probe files in a fresh pytest, and its
reference implementations, each of which must have a caller."""

import ast
import pathlib
import re
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


def _names_taken_from_oracles(path):
    """Names a module imports from oracles or reads as oracles.<name> (a text scan: parsing
    every test module would cost several times this test's budget of 0.1 s)."""
    text = path.read_text(encoding="utf-8")
    names = set(re.findall(r"\boracles\.(\w+)", text))
    for imported in re.findall(r"^\s*from oracles import \(?([\w\s,]*)", text, re.M):
        names.update(re.findall(r"\w+", imported))
    return names


def test_every_oracle_has_a_caller():
    # a reference that nothing compares against checks nothing: each top-level function
    # of oracles.py is called from a test module, from bench/, or from an oracle that
    # itself has a caller (module-level aliases such as `a = b` followed through)
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    refs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    functions = set(refs)
    refs.update((target.id, node.value) for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name))
    callers = [*ROOT.glob("tests/test_*.py"), *ROOT.glob("bench/**/*.py")]
    todo = list(set().union(*map(_names_taken_from_oracles, callers)) & set(refs))
    live = set(todo)
    while todo:
        for node in ast.walk(refs[todo.pop()]):
            if isinstance(node, ast.Name) and node.id in refs and node.id not in live:
                live.add(node.id)
                todo.append(node.id)
    assert sorted(functions - live) == []
