"""Source-level rules for the package."""

import ast
from dataclasses import fields
from pathlib import Path

import sympy

import hodgemoments
from hodgemoments.chains import BasisSet, GradedChain

SOURCES = sorted(Path(hodgemoments.__file__).parent.glob("*.py"))


def callers(names):
    """{name: ["file.py:top-level def", ...]} for every plain call of each name."""
    calls = {name: [] for name in names}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in calls):
                    calls[node.func.id].append(f"{path.name}:{getattr(top, 'name', '')}")
    return calls


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"chains.py", "linalg.py", "cli.py"}


def test_no_assert_statements():
    # python -O strips asserts; invariants must raise named exceptions
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_one_elimination_loop():
    # add_row and residual share one elimination loop in linalg
    pops = sum(path.read_text().count("heapq.heappop") for path in SOURCES)
    assert pops == 1


def test_walk_prime_is_one_fixed_constant():
    # PRIME is assigned once, to a literal prime below 2^30, so that every
    # reduced entry is one digit of a Python int; only the kernel and the
    # walk name it, and nothing reads the environment, so no option or
    # variable can change it
    assigned, named = [], set()
    for path in SOURCES:
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        assigned += [(path.name, node.value) for node in ast.walk(tree)
                     if isinstance(node, ast.Assign)
                     and any(isinstance(t, ast.Name) and t.id == "PRIME" for t in node.targets)]
        if any(isinstance(node, ast.Name) and node.id == "PRIME" or
               isinstance(node, ast.alias) and node.name == "PRIME" for node in ast.walk(tree)):
            named.add(path.name)
        assert "environ" not in text and "getenv" not in text, path.name
    (where, value), = assigned
    assert where == "linalg.py" and isinstance(value, ast.Constant)
    assert sympy.isprime(value.value) and value.value < 2 ** 30
    assert named == {"linalg.py", "chains.py"}


def test_chain_operators_built_in_one_place():
    # N and E come from the derivation columns in build_chain, and F in the
    # sl2 certificate only.  Those columns and the eigenvector products find
    # a monomial's neighbours through the one raise table, _raises.  weyl's
    # tensor derivations come from its own helper, in v21_chain only, on the
    # same slot moves as the chains
    assert callers(["_derivation_columns", "_raises", "_tensor_columns", "_slot_moves"]) == {
        "_derivation_columns": ["chains.py:build_chain", "chains.py:_sl2_strings"],
        "_raises": ["chains.py:_derivation_columns", "chains.py:_raise_tables"],
        "_tensor_columns": ["weyl.py:v21_chain"],
        "_slot_moves": ["chains.py:build_chain", "chains.py:_sl2_strings",
                        "weyl.py:v21_chain"],
    }


def test_chains_sets_attributes_only_in_constructors():
    # a chain is filled in when it is made; a certificate or a walk never
    # writes into the chain it reads
    path = next(p for p in SOURCES if p.name == "chains.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        stores = (isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load)
                  or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("setattr", "delattr"))
        if stores and where not in ("__init__", "__post_init__"):
            found.append(f"{where}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    assert found == []


def test_hodge_symmetry_and_mixed_layout_stated_once():
    # every table read off its low half goes through _mirrored, the one
    # min(p, w - p) of the package, and both n = 2 mixed tables through
    # _mixed_diamond; the non-tower branch of _kl_diamond reads every degree,
    # so that mid-degree-mirror still checks the symmetry there
    calls = {"_mirrored": [], "_mixed_diamond": [], "min": []}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in calls
                        and (node.func.id != "min" or any(
                            isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Sub)
                            for arg in node.args))):
                    calls[node.func.id].append(f"{path.name}:{getattr(top, 'name', '')}")
    assert calls == {
        "_mirrored": ["hodge.py:_character_diamond", "hodge.py:_kl_diamond"],
        "_mixed_diamond": ["hodge.py:mixed_hodge_tilde_kl3", "hodge.py:mixed_hodge_kl3"],
        "min": ["hodge.py:_mirrored"],
    }


def test_closed_tables_read_one_slice_step_of_one_character():
    # the kl (tower case included), v21 and airy closed tables are slice steps
    # of a weight character, each table through one step reader, and so is the
    # pure part of both n = 2 mixed tables, whose diagonal reads the string
    # bottoms of Q(t) (in hodge, only verify reads them besides); Q(t), the
    # cached lattice reader and the solution count at 0 read the same
    # character.  The tower line comes from the gate: hodge counts
    # vanishing tuples for dims_kl and verify only, since the count
    # enumerates for composite m
    found = callers(["_slice_steps", "weight_character", "_character_diamond",
                     "bottom_multiplicity", "vanishing_tuple_count"])
    for name in ("bottom_multiplicity", "vanishing_tuple_count"):
        found[name] = sorted({c for c in found[name] if c.startswith("hodge.py:")})
    assert found == {
        "_slice_steps": ["counting.py:_lattice_steps", "hodge.py:_character_diamond",
                         "hodge.py:hodge_airy_closed"],
        "weight_character": ["counting.py:block_multiplicity_poly", "counting.py:_lattice_steps",
                             "counting.py:solution_dim_at_zero", "hodge.py:hodge_kl_closed",
                             "hodge.py:hodge_airy_closed", "hodge.py:hodge_v21",
                             "hodge.py:_mixed_diamond"],
        "_character_diamond": ["hodge.py:hodge_kl_closed", "hodge.py:hodge_v21",
                               "hodge.py:_mixed_diamond"],
        "bottom_multiplicity": ["hodge.py:_mixed_diamond", "hodge.py:verify"],
        "vanishing_tuple_count": ["hodge.py:dims_kl", "hodge.py:verify"],
    }


def test_integer_counting_layers_import_no_fractions():
    # Q(t), the step series, Phi_m, the vanishing counts and the echelon are integer work
    for name in ("counting.py", "cyclo.py", "linalg.py", "poly.py", "series.py"):
        path = next(p for p in SOURCES if p.name == name)
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module}
        assert "fractions" not in imported, name


def test_every_chain_and_basis_field_is_read():
    # a field that nothing in the package reads is dead weight on every chain
    # and basis; the rule goes by attribute name, whatever the receiver
    read = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{cls.__name__}.{f.name}" for cls in (GradedChain, BasisSet)
              for f in fields(cls) if f.name not in read]
    assert unread == []


def test_class_echelons_walked_in_one_place():
    # one walker builds the class echelons, behind the memo that both the
    # bases and the kernel dims read
    assert callers(["_walk_images", "_image_walk", "SparseEchelon"]) == {
        "_walk_images": ["chains.py:_image_walk"],
        "_image_walk": ["chains.py:kernel_slice_dims", "chains.py:cohomology_bases"],
        "SparseEchelon": ["chains.py:_walk_images", "weyl.py:v21_chain"],
    }


def test_test_oracles_stay_out_of_the_library():
    # the powers-of-N Jordan type, the rank helper and the per-degree coker
    # walk are oracles in the tests; the library certifies N with an sl2 triple.
    # The eigenvector products in Z[zeta_m], the balanced unpacker of the
    # packed group ring and the rationality test of CycloInt are test-only too,
    # and so are theta_bar and the tower on chain monomials, z-powers kept,
    # the monomials of a slice, the slice step summed afresh per degree, and
    # the per-label Leibniz rule that the raise-table columns of N, E and F are
    # checked against.  The group composition behind the V21 symmetrizer, the
    # projected space read off it, the formal signed shift sum and the
    # bivariate step series are oracles too
    oracles = {"jordan_type", "matrix_rank", "coker_slice_dims", "eigenvector_product",
               "cycloint_eigenvector_product", "unpack", "is_rational", "rational_part",
               "theta_bar_mono", "tower_slice", "slice_monomials", "_slice_step",
               "strided_slice_step", "_leibniz", "shift_action", "corner_action",
               "_lowering_action", "young_projector", "ProjectedSpace",
               "_signed_group_elements", "_apply_perm", "_compose", "signed_shift_sum",
               "lattice_step_series"}
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.name}" for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in oracles]
    assert found == []


def test_library_imports_no_series():
    # verify recounts the slice steps from V's weights, so the bivariate
    # series is a test oracle; series.py stays in the package, imported by none
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ("hodgemoments" if node.level else "", node.module)))
                named = {base, *(f"{base}.{alias.name}" for alias in node.names)}
            elif isinstance(node, ast.Import):
                named = {alias.name for alias in node.names}
            else:
                continue
            if "hodgemoments.series" in named and path.name != "series.py":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_chains_never_names_cycloint():
    # eta is an integer norm form and the eigen relation is decided in the
    # packed group ring, so chains has no use for Z[zeta_m] arithmetic
    path = next(p for p in SOURCES if p.name == "chains.py")
    assert "CycloInt" not in path.read_text()


def test_cli_renders_in_main_only():
    # each subcommand returns (payload, exit code); main alone builds the
    # document and emits it, inside the one try that maps errors to exit codes
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    callers = {"_emit": [], "_document": []}
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in callers):
                callers[node.func.id].append(getattr(top, "name", ""))
    assert callers == {"_emit": ["main"], "_document": ["main"]}
