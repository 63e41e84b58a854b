"""The package's public names, and the modules each command loads."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sl2hc

SRC = Path(__file__).resolve().parents[1] / "src"

# The public names by home module, as exported before the package became lazy.
PUBLIC = {
    "core": (
        "ASCone DiscreteSeries FinDim InfChar IrreducibleClass KTypeFunction PrincipalIrr Scalar "
        "UnexpectedEigenvalueError VirtualModule as_cone as_cone_module as_scalar casimir_value "
        "class_sort_key display_sort_key format_class format_scalar format_virtual_module inf_char "
        "is_integer ktype_function module_ktype_function parse_class principal_is_irreducible "
        "principal_iso_equal"
    ),
    "tensor": (
        "Irr LengthTwo PsIrreducible PsNegativeInt PsPositiveInt PsSplitLimit ReducibleSeries "
        "SeriesStructure Summand block_parameter clebsch_gordan decomposition_semisimplification "
        "decomposition_to_dict ds_tensor format_series_block format_summand grothendieck_tensor "
        "ktype_conservation_holds primary_split ps_structure ps_tensor series_semisimplification "
        "summand_semisimplification tensor_with_finite weyl_signed_tensor"
    ),
    "oracle": (
        "CasimirReport FinDimRealization PrincipalSeriesRealization VerificationVerdict "
        "casimir_matrix casimir_on_symmetric_power casimir_report default_window "
        "reducibility_points report_to_dict verdict_to_dict verify_tensor"
    ),
    "lattice": (
        "ANTIHOL_POINT FD_POINT HOL_POINT ClassPoint PosetOps class_closure classify_irreducible "
        "closure cover_edges enumerate_submodule_sets format_point format_point_set "
        "generated_submodule irreducible_closed_sets is_valid_submodule_set orbit_label "
        "point_sort_key ps_class_equal ps_class_point reduce_to_base specialization_edges "
        "structural_counts sub_poset_ops"
    ),
    "cli": "main",
}

ALL = [
    "ANTIHOL_POINT", "ASCone", "CasimirReport", "ClassPoint", "DiscreteSeries", "FD_POINT", "FinDim",
    "FinDimRealization", "HOL_POINT", "InfChar", "Irr", "IrreducibleClass", "KTypeFunction",
    "LengthTwo", "PosetOps", "PrincipalIrr", "PrincipalSeriesRealization", "PsIrreducible",
    "PsNegativeInt", "PsPositiveInt", "PsSplitLimit", "ReducibleSeries", "Scalar", "SeriesStructure",
    "Summand", "UnexpectedEigenvalueError", "VerificationVerdict", "VirtualModule", "as_cone",
    "as_cone_module", "as_scalar", "block_parameter", "casimir_matrix", "casimir_on_symmetric_power",
    "casimir_report", "casimir_value", "class_closure", "class_sort_key", "classify_irreducible",
    "clebsch_gordan", "closure", "cover_edges", "decomposition_semisimplification",
    "decomposition_to_dict", "default_window", "display_sort_key", "ds_tensor",
    "enumerate_submodule_sets", "format_class", "format_point", "format_point_set", "format_scalar",
    "format_series_block", "format_summand", "format_virtual_module", "generated_submodule",
    "grothendieck_tensor", "inf_char", "irreducible_closed_sets", "is_integer",
    "is_valid_submodule_set", "ktype_conservation_holds", "ktype_function", "main",
    "module_ktype_function", "orbit_label", "parse_class", "point_sort_key", "primary_split",
    "principal_is_irreducible", "principal_iso_equal", "ps_class_equal", "ps_class_point",
    "ps_structure", "ps_tensor", "reduce_to_base", "reducibility_points", "report_to_dict",
    "series_semisimplification", "specialization_edges", "structural_counts", "sub_poset_ops",
    "summand_semisimplification", "tensor_with_finite", "verdict_to_dict", "verify_tensor",
    "weyl_signed_tensor",
]


def test_all_is_unchanged():
    assert sl2hc.__all__ == ALL
    assert sorted(name for names in PUBLIC.values() for name in names.split()) == ALL


def test_each_name_is_its_home_module_object():
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"sl2hc.{module}")
        for name in names.split():
            assert getattr(sl2hc, name) is getattr(home, name), name
    assert sl2hc.oracle.UnexpectedEigenvalueError is sl2hc.core.UnexpectedEigenvalueError


def test_star_import_dir_and_unknown_names():
    namespace: dict = {}
    exec("from sl2hc import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == ALL
    assert set(ALL) | {"__version__"} <= set(dir(sl2hc))
    assert sl2hc.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        sl2hc.no_such_name
    assert not hasattr(sl2hc, "dataclass")


# --- what each command loads ------------------------------------------------------

HEAVY = {"sl2hc.oracle", "sl2hc.linalg", "sl2hc.lattice", "dataclasses"}

# Runs ``python -m sl2hc ARGV`` and prints, last, the modules it added to those
# loaded at interpreter start.
_PROBE = """
import runpy, sys
before = set(sys.modules)
sys.argv = ["sl2hc", *sys.argv[1:]]
try:
    runpy.run_module("sl2hc", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(" ".join(sorted(set(sys.modules) - before)))
"""


def _run(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env).stdout


def _loaded(*argv: str) -> set:
    return set(_run("-c", _PROBE, *argv).splitlines()[-1].split())


@pytest.mark.parametrize(
    "argv",
    [
        ("cg", "0", "0"),
        ("--format", "json", "series", "1/2", "0"),
        ("tensor", "I(1/2,0)", "2"),
        ("tensor", "D+(1)", "2"),
        ("ktypes", "V(2)", "--window", "-2", "2"),
        ("series", "1/2", "2"),
    ],
)
def test_cheap_commands_load_no_heavy_layer(argv):
    loaded = _loaded(*argv)
    # ktypes reads the class's ladder, and parity 2 is refused before any command runs
    tensor = set() if argv[0] == "ktypes" or argv == ("series", "1/2", "2") else {"sl2hc.tensor"}
    assert {name for name in loaded if name.split(".")[0] == "sl2hc"} == {"sl2hc", "sl2hc.cli", "sl2hc.core", *tensor}
    assert not loaded & HEAVY
    assert ("json" in loaded) == ("json" in argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "V(1)", "I(1/3,0)"),
        ("classify", "D-(2)"),
        ("--format", "json", "lattice", "--lambda-keys=1/3"),
        ("lattice", "--lambda-keys=1/3"),
    ],
)
def test_lattice_commands_load_no_oracle(argv):
    loaded = _loaded(*argv)
    assert "sl2hc.lattice" in loaded
    assert not loaded & {"sl2hc.oracle", "sl2hc.linalg", "sl2hc.tensor", "dataclasses"}
    assert ("json" in loaded) == ("json" in argv)


def test_refused_products_load_no_tensor():
    for argv in (("cg", "5000", "5000"), ("tensor", "I(1/3,0)", "5000"), ("tensor", "V(5000)", "5000")):
        assert {name for name in _loaded(*argv) if name.startswith("sl2hc")} == {"sl2hc", "sl2hc.cli", "sl2hc.core"}, argv


def test_refused_oracle_runs_load_no_oracle():
    for argv in (
        ("verify", "7/5", "0", "2048"),
        ("--format", "json", "verify", "1/36893488147419103232", "0", "1"),
        ("sweep", "--lambdas=1/2", "--ms=0,1025"),
        ("sweep", "--lambdas=" + ",".join(map(str, range(501))), "--ms=0"),
    ):
        loaded = {name for name in _loaded(*argv) if name.startswith("sl2hc")}
        assert loaded == {"sl2hc", "sl2hc.cli", "sl2hc.core"}, argv


def test_oracle_commands_load_the_oracle():
    for argv in (
        ("verify", "1/2", "0", "1"),
        ("--format", "json", "verify", "1/2", "0", "1"),
        ("sweep", "--lambdas=1/2", "--ms=0"),
    ):
        loaded = _loaded(*argv)
        assert {"sl2hc.oracle", "sl2hc.linalg"} <= loaded, argv
        assert ("json" in loaded) == ("json" in argv), argv


def test_import_sl2hc_loads_no_submodule():
    code = "import sys, sl2hc; print(sorted(m for m in sys.modules if m.startswith('sl2hc')))"
    assert _run("-c", code).strip() == "['sl2hc']"


def test_no_source_module_imports_dataclasses():
    for path in sorted((SRC / "sl2hc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] != "dataclasses" for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name


def test_no_source_module_imports_typing():
    for path in sorted((SRC / "sl2hc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
        imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module]
        assert "typing" not in {name.split(".")[0] for name in imported}, path.name
