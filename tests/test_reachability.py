"""Every function and method in `src/tau34` runs in some `tau34` command, or
TEST_ONLY names it with the reason it stays.

The commands run once each in-process under `sys.setprofile`, which records
the code objects they enter; an AST walk of the package lists the
module-level functions and the methods of module-level classes.  A name in
TEST_ONLY that a command runs, or that no longer exists, fails the test too,
so the list can only shrink.
"""
import ast
import sys
from pathlib import Path

import tau34
from tau34 import cli

SRC = Path(tau34.__file__).parent

#: reason -> the functions (module.qualname) that only tests call
TEST_ONLY = {
    "the topological expansion, the paper's headline claim: whether it "
    "becomes a certify row is open (ROADMAP item 3)": (
        "tau_expansion.ExpansionJet.u0", "tau_expansion.ExpansionJet.v0",
        "tau_expansion._sigma_refined", "tau_expansion._jet_derivative",
        "tau_expansion.expansion_jet", "tau_expansion.string_residual",
        "series.Jet.__init__", "series.Jet.from_derivatives",
        "series.Jet.constant", "series.Jet.order", "series.Jet.derivative",
        "series.Jet._coerce", "series.Jet.__add__", "series.Jet.__neg__",
        "series.Jet.__sub__", "series.Jet.__rsub__", "series.Jet.__mul__",
        "series.Jet.__truediv__", "series.Jet.__rtruediv__",
        "series.Jet.__repr__",
    ),
    "the critical surface nu(eta, mu): benchmarks/workloads.py and the "
    "tests build interior grids from it": (
        "critical.nu_critical",
    ),
    "P_k at zeta, which the test against scipy's Airy functions checks; "
    "residue_W1 runs its zeta-free factor P_k_factor": (
        "parametrix.P_k_matrix",
    ),
}

#: extreme inputs, which the CI workflow also runs through the console
#: script: each must end without a traceback
EXTREME = (["certify", "--eta", "1e200"], ["sigma", "--eta", "1e308"],
           ["tau", "--nu", "5"], ["critical", "--eta", "1e30"],
           ["critical", "--eta", "1e120"], ["pi", "--x-end", "3"],
           ["critical", "--eta", "1e-150"], ["critical", "--eta", "1e-50"],
           ["parametrix", "--eta=-5", "--nu=-1e-6"],
           ["certify", "--eta", "1", "--nu=-1e200"],
           ["tau", "--eta", "1", "--nu=-1e200"],
           ["parametrix", "--eta=-676586.4282446072",
            "--mu=138843.51463656646", "--nu=-0.010108945468011433"],
           ["certify", "--eta=-1e40", "--mu=0", "--nu=-1e100"])


def defined_functions():
    """{(file, first line): 'module.qualname'} for module-level functions
    and the methods of module-level classes.  The first line is that of the
    first decorator, as in the code object's co_firstlineno."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                members = [(node, node.name)]
            elif isinstance(node, ast.ClassDef):
                members = [(n, f"{node.name}.{n.name}") for n in node.body
                           if isinstance(n, ast.FunctionDef)]
            else:
                continue
            for fn, qualname in members:
                first = min([fn.lineno]
                            + [d.lineno for d in fn.decorator_list])
                out[(str(path), first)] = f"{path.stem}.{qualname}"
    return out


def command_runs(tmp_path):
    """Every subcommand at its defaults, a --grid run and a --config run."""
    config = tmp_path / "run.conf"
    config.write_text("eta = 0.5\nformat = json\n")
    return ([[name] for name in ("sigma", "certify", "surface", "tau",
                                 "parametrix", "critical", "pi")]
            + [["sigma", "--grid=-1:2:3,-0.1:0.1:2,-1:1:2"],
               ["tau", "--config", str(config)]])


def executed_code(runs, tmp_path):
    """(file, first line) of every code object the runs enter, and their
    exit codes."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    # the parser is cached per process: build it again inside the profile
    cli.build_parser.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv + ["--out", str(tmp_path / f"{k}.out")])
                 for k, argv in enumerate(runs)]
    finally:
        sys.setprofile(previous)
    return seen, codes


def test_every_function_runs_or_is_test_only(tmp_path):
    runs = command_runs(tmp_path)
    seen, codes = executed_code(runs + [list(a) for a in EXTREME], tmp_path)
    assert codes[:len(runs)] == [0] * len(runs), codes
    # an extreme input may fail, but through an exit code, not an exception
    assert all(code in (0, 1, 2) for code in codes[len(runs):]), codes
    defined = defined_functions()
    ran = {name for key, name in defined.items() if key in seen}
    test_only = {name for names in TEST_ONLY.values() for name in names}
    assert sum(map(len, TEST_ONLY.values())) == len(test_only)
    assert sorted(set(defined.values()) - ran - test_only) == [], \
        "no command runs these and TEST_ONLY does not name them"
    assert sorted(test_only & ran) == [], \
        "a command runs these: remove them from TEST_ONLY"
    assert sorted(test_only - set(defined.values())) == [], \
        "these no longer exist: remove them from TEST_ONLY"
