"""The package's `__init__.py` imports nothing, every public function and
method has a caller in the package, no module imports what it does not use,
every module-level constant and record field is read, every record has a
field read by name, every CLI option is read by `cli.main`, no module reads
the environment or asserts, every file is written as bytes and opened for
writing only by `graph.write_chunks`, `block_residues` and `_residue_edges`
have one caller each (colour class 0 is the independence certificate), the
graph keeps no step census, the χ and α verdicts build none of their inputs
and the renderers read the clique that `certify` built, `run_verification`
calls no verifier and prints each verdict from `certify`'s `verdicts`,
`CayleyGraph.axis_plan` reads neither
`enumerate_connectors` nor `order_scan`, no module imports `random`, `typing`,
`pathlib` or `json`, none defines a `rotate`, only `graph` and
`oracles.distance_sweep` build sets of multiples, no module defines an
exception class and `cli.main` catches only ValueError and OSError, and
every backticked
`module.name` or `Class.name` in README.md and the package's docstrings
names an attribute of that module or class.  The checks read the sources
with `ast`."""

import ast
import builtins
import importlib
import inspect
import re
from pathlib import Path

import psqcayley
from psqcayley.graph import CayleyGraph
from psqcayley.group import PrimeTriple
from psqcayley.oracles import distance_sweep
from psqcayley.report import certify, run_verification

PACKAGE = Path(psqcayley.__file__).resolve().parent
# bound by bench/tracer.py, with no caller in the package; drop with ROADMAP item 1
TRACER_ONLY = {
    "element_order", "closed_form_distance_table", "bfs", "edges", "exact_max_independent_set", "adjacent",
    "verify_block_partition",
}


def _trees() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _code_references(tree: ast.AST) -> set[str]:
    """Every name read as code: the attribute of an Attribute, or a Name in
    no body of a function or lambda that binds it as a parameter, so a
    parameter that shares a public name is no caller of it."""
    parameters = set()  # the Name nodes that read a parameter
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            bound = {x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if x}
            body = node.body if isinstance(node.body, list) else [node.body]
            parameters.update(n for s in body for n in ast.walk(s) if isinstance(n, ast.Name) and n.id in bound)
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node not in parameters:
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def _package_references() -> set[str]:
    return set().union(*map(_code_references, _trees().values()))


def test_the_package_init_imports_nothing():
    # each name has one public path, the module that defines it, and
    # `import psqcayley` alone loads none of the modules
    imports = [n.lineno for n in ast.walk(_trees()["__init__.py"]) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert not imports, f"__init__.py imports at lines {imports}"


def _public_functions() -> set[str]:
    """The public module-level functions and the public methods of classes."""
    names = set()
    for name, tree in _trees().items():
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            names.update(
                f.name for f in body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
            )
    return names


def test_every_public_function_and_method_has_a_caller_in_the_package():
    # a function whose last caller moved out cannot stay behind
    unused = _public_functions() - _package_references() - TRACER_ONLY
    assert not unused, f"defined but never called in the package: {sorted(unused)}"


def test_the_tracer_allowlist_holds_only_names_without_a_caller():
    assert TRACER_ONLY <= _public_functions()
    assert not TRACER_ONLY & _package_references()


def test_no_module_has_an_unused_import():
    problems = []
    for name, tree in _trees().items():
        refs = _code_references(tree)
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in refs:
                    problems.append(f"{name}: {bound}")
    assert not problems, f"unused imports: {problems}"


def test_every_module_constant_is_read_in_the_package():
    # a rule removed from the code cannot leave its constant behind
    defined, read = set(), set()
    for name, tree in _trees().items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id):
                    defined.add(target.id)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert defined, "no module-level constant found"
    assert not defined - read, f"defined but never read: {sorted(defined - read)}"


def _namedtuple_fields(name: str, node: ast.expr) -> tuple[str, ...] | None:
    """The fields of a `namedtuple(name, "field ...")` call, or None when
    node is not one; the call must give the record its own name, which its
    repr shows."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "namedtuple"):
        return None
    typename, names = (arg.value for arg in node.args)
    assert typename == name, f"record {name} is named {typename!r}"
    return tuple(names.replace(",", " ").split())


def _records_and_reads() -> tuple[dict[str, tuple[str, ...]], set[str], set[tuple]]:
    """Each record's fields, the attribute names read, and the name tuples
    that some assignment or loop unpacks into.  A record is a class whose
    base is a `namedtuple(...)` call, or a name assigned one."""
    fields, read, unpacked = {}, set(), set()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    if (f := _namedtuple_fields(node.name, base)) is not None:
                        fields[node.name] = f
            elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                if (f := _namedtuple_fields(name, node.value)) is not None:
                    fields[name] = f
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Store):
                unpacked.add(tuple(getattr(e, "id", None) for e in node.elts))
    assert len(fields) == 11, f"not the 11 records: {sorted(fields)}"
    return fields, read, unpacked


def test_every_record_field_is_read_in_the_package():
    # a field is read as an attribute, or the record is unpacked whole into
    # names that spell its fields
    fields, read, unpacked = _records_and_reads()
    unread = [
        f"{record}.{field}"
        for record, names in fields.items()
        if names not in unpacked
        for field in names
        if field not in read
    ]
    assert not unread, f"record fields never read: {unread}"


def test_every_record_has_a_field_read_as_an_attribute():
    # a record that is only ever unpacked is a tuple with a name
    fields, read, _ = _records_and_reads()
    nameless = [record for record, names in fields.items() if not read & set(names)]
    assert not nameless, f"records whose fields are never read by name: {nameless}"


def test_no_module_asserts():
    # `python -O` strips an assert, so a claim that one decides would pass
    # unchecked there; every claim is a verdict or a raised error instead
    asserts = [
        f"{name}:{node.lineno}" for name, tree in _trees().items() for node in ast.walk(tree) if isinstance(node, ast.Assert)
    ]
    assert not asserts, f"assert statements: {asserts}"


def test_every_refusal_is_a_value_error_or_an_os_error():
    # input outside the paper's instances is refused one way: no module
    # defines an exception class, and `cli.main` has one handler, for
    # exactly ValueError and OSError, that prints the `error:` line
    classes = [node for tree in _trees().values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    exceptions = set()
    while True:  # the classes whose bases include a builtin exception or one of these
        found = {
            c.name
            for c in classes
            for base in map(ast.unparse, c.bases)
            if base in exceptions or isinstance(getattr(builtins, base, None), type)
            and issubclass(getattr(builtins, base), BaseException)
        }
        if found <= exceptions:
            break
        exceptions |= found
    assert not exceptions, f"exception classes: {sorted(exceptions)}"
    handlers = [node for node in ast.walk(_function("cli.py", "main")) if isinstance(node, ast.ExceptHandler)]
    assert [ast.unparse(h.type) for h in handlers] == ["(ValueError, OSError)"]


def test_no_module_reads_the_environment():
    # each value has one way in, the command line; no variable overrides it
    for name, tree in _trees().items():
        used = {"environ", "getenv"} & _code_references(tree)
        assert not used, f"{name} references {sorted(used)}"


def _is_os_open(call: ast.Call) -> bool:
    func = call.func
    return isinstance(func, ast.Attribute) and func.attr == "open" and getattr(func.value, "id", None) == "os"


def _open_mode(call: ast.Call) -> ast.expr | None:
    """The mode of open(file, mode) or path.open(mode), or None when absent.
    os.open(path, flags) takes flags, and has no text mode."""
    if _is_os_open(call):
        return None
    position = 1 if isinstance(call.func, ast.Name) else 0
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[position : position + 1]
    return modes[0] if modes else None


def test_no_module_writes_a_file_in_text_mode():
    # one write path: every output is written as bytes, from chunks formatted
    # as bytes, with no text-mode encoder copying each chunk again
    problems = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if called == "write_text":
                problems.append(f"{name}:{node.lineno}: write_text")
            elif called == "open" and (mode := _open_mode(node)) is not None:
                text = mode.value if isinstance(mode, ast.Constant) else None
                if not isinstance(text, str) or ("b" not in text and set(text) & set("wax+")):
                    problems.append(f"{name}:{node.lineno}: open mode {ast.unparse(mode)}")
    assert not problems, f"text-mode writes: {problems}"


def _opens_for_writing(call: ast.Call) -> bool:
    """os.open, or an open whose mode may write: one holding w, a, x or +,
    or one that is not a constant string."""
    called = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    if called != "open":
        return False
    if _is_os_open(call):
        return True
    mode = _open_mode(call)
    if mode is None:
        return False
    text = mode.value if isinstance(mode, ast.Constant) else None
    return not isinstance(text, str) or bool(set(text) & set("wax+"))


def _call_sites(matches) -> set[str]:
    """module:function for each call in the package for which matches(call)
    holds, named by its innermost enclosing function (module:<module> at
    top level)."""
    found = set()

    def visit(node: ast.AST, where: str, name: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = f"{name}:{child.name}" if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            if isinstance(child, ast.Call) and matches(child):
                found.add(where)
            visit(child, inner, name)

    for name, tree in _trees().items():
        visit(tree, f"{name}:<module>", name)
    return found


def test_write_chunks_is_the_one_function_that_opens_a_file_for_writing():
    # every output leaves through graph.write_chunks; no second write path
    assert _call_sites(_opens_for_writing) == {"graph.py:write_chunks"}


def test_the_certificate_is_the_one_residue_set_and_its_count_the_one_edge_count():
    # colour class 0 is the independence certificate, so one function maps
    # block ids to residues and one counts the edges inside them; a second
    # residue set or a second count would be a second caller
    callers = {
        "block_residues": {"parameters.py:independence_certificate"},
        "_residue_edges": {"parameters.py:independence_internal_edges"},
    }
    for called, expected in callers.items():
        sites = _call_sites(lambda call: (getattr(call.func, "id", None) or getattr(call.func, "attr", None)) == called)
        assert sites == expected, f"{called} is called from {sorted(sites)}"


def test_every_cli_option_is_read():
    # an option that main never reads would be a knob that does nothing; main
    # reads each one by its name, as args["--x"], args.get("--x") or "--x" in args
    from psqcayley import cli

    [main] = [f for f in _trees()["cli.py"].body if getattr(f, "name", None) == "main"]
    named = {node.value for node in ast.walk(main) if isinstance(node, ast.Constant)}
    options = set().union(*cli.OPTIONS.values())
    assert {"--primes", "--seed", "--budget-sources", "--config"} <= options
    assert set(cli.OPTIONS["params"]) == {"--primes", "--seed", "--out", "--timings"}
    unread = options - named
    assert not unread, f"options that cli.main never reads: {sorted(unread)}"


def test_certificate_modules_build_no_n_bit_set():
    # n-bit sets belong to the BFS oracle layer; the fiber, block, walk,
    # colouring, independence and index claims are decided on quotients and
    # connector differences, and `certify` builds none between its stages
    kernel = {"neighborhood", "rotate", "multiples"}
    [certify] = [f for f in _trees()["report.py"].body if getattr(f, "name", None) == "certify"]
    bodies = {name: _trees()[name] for name in ("structure.py", "hamiltonian.py", "parameters.py")}
    for name, tree in {**bodies, "report.certify": certify}.items():
        used = kernel & _code_references(tree)
        assert not used, f"{name} references {sorted(used)}"
    # the walk is checked level by level: no vertex replay, no mark per vertex
    used = {"is_cycle", "bytearray"} & _code_references(_trees()["hamiltonian.py"])
    assert not used, f"hamiltonian.py references {sorted(used)}"


def test_block_verifiers_read_no_box_of_block_ids():
    # the partition is decided by the moduli and adjacency by the
    # connectors' ids: neither maps, lists or constructs the abc blocks
    box = {"block_residues", "index_ids", "crt_combine"}
    tree = _trees()["structure.py"]
    verifiers = [f for f in tree.body if getattr(f, "name", None) in ("verify_block_partition", "verify_block_adjacency")]
    assert len(verifiers) == 2
    for f in verifiers:
        used = box & _code_references(f)
        assert not used, f"{f.name} references {sorted(used)}"


def test_the_axis_premise_reads_neither_the_plant_point_nor_the_order_scan():
    # `axis_plan` decides that the members are C from the closed-form classes
    # alone: `enumerate_connectors` is where the tests plant member lists,
    # and the order scan is `verify`'s second derivation of C
    [graph_class] = [c for c in _trees()["graph.py"].body if getattr(c, "name", None) == "CayleyGraph"]
    [plan] = [f for f in graph_class.body if getattr(f, "name", None) == "axis_plan"]
    used = {"enumerate_connectors", "order_scan"} & _code_references(plan)
    assert not used, f"CayleyGraph.axis_plan references {sorted(used)}"
    assert "connector_classes" in _code_references(plan)


def _function(module: str, name: str) -> ast.FunctionDef:
    [f] = [f for f in _trees()[module].body if getattr(f, "name", None) == name]
    return f


def test_the_graph_keeps_no_step_census():
    # the census of steps by residue mod abc belongs to the one residue-set
    # count in `parameters`, which builds it for its one call per certify
    [graph_class] = [c for c in _trees()["graph.py"].body if getattr(c, "name", None) == "CayleyGraph"]
    assert "step_residues" not in {getattr(f, "name", None) for f in graph_class.body}
    assert not hasattr(CayleyGraph, "step_residues")
    imported = {a.name for node in ast.walk(_trees()["graph.py"]) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert "Counter" not in imported


def test_the_chi_and_alpha_verdicts_build_none_of_their_inputs():
    # `certify` builds the clique, the certificate and the scan once each and
    # passes them in; a verdict that built one again would be a second copy,
    # and one that read the members would be a second count of the graph
    built = {"clique_certificate", "independence_certificate"}
    for name in ("verify_coloring", "verify_index_bounds"):
        used = built & _code_references(_function("parameters.py", name))
        assert not used, f"{name} references {sorted(used)}"
    assert "members" not in _code_references(_function("parameters.py", "verify_coloring"))


def test_the_renderers_read_the_clique_that_certify_built():
    # K is built once per run, in `certify`, and both renderings read it there
    for name in ("build_report", "run_verification"):
        used = {"clique_certificate"} & _code_references(_function("report.py", name))
        assert not used, f"report.{name} references {sorted(used)}"
    assert "clique_certificate" in _code_references(_function("report.py", "certify"))


def test_verify_decides_no_verdict_and_ands_each_with_its_oracle():
    # every verdict is decided once, in `certify`: `run_verification` calls
    # no `parameters`, `structure` or `hamiltonian` function, and each line
    # it prints, in the order of `certify`'s verdicts, passes
    # `c.verdicts[name]` alone or ANDed with what an `oracles` call returned
    run = _function("report.py", "run_verification")
    verifiers = {
        f.name for m in ("parameters.py", "structure.py", "hamiltonian.py") for f in _trees()[m].body
        if isinstance(f, ast.FunctionDef)
    }
    calls = [node for node in ast.walk(run) if isinstance(node, ast.Call)]
    called = {getattr(call.func, "id", None) or getattr(call.func, "attr", None) for call in calls}
    assert not called & verifiers, sorted(called & verifiers)
    assert not {"parameters", "structure", "hamiltonian"} & _code_references(run)
    checks = [call for call in calls if getattr(call.func, "id", None) == "check"]
    assert [ast.literal_eval(call.args[0]) for call in checks] == list(certify(PrimeTriple(2, 3, 5)).verdicts)
    from_oracles = {
        name.id
        for node in ast.walk(run)
        if isinstance(node, ast.Assign) and "oracles" in _code_references(node.value)
        for name in ast.walk(node.targets[0])
        if isinstance(name, ast.Name)
    }
    for call in checks:
        passed = call.args[1]
        first, *rest = passed.values if isinstance(passed, ast.BoolOp) and isinstance(passed.op, ast.And) else [passed]
        assert ast.unparse(first) == f"c.verdicts[{call.args[0].value!r}]", ast.unparse(passed)
        for operand in rest:
            names = {node.id for node in ast.walk(operand) if isinstance(node, ast.Name)}
            assert names and names <= from_oracles, ast.unparse(passed)


def test_report_renders_lines_and_builds_no_n_bit_set():
    # the work of every verify line (the order scan, the sweep's n-bit
    # sets) lives in `oracles`; report.py only renders verdicts
    kernel = {"multiples", "rotate", "neighborhood", "bit_count", "gcd"}
    used = kernel & _code_references(_trees()["report.py"])
    assert not used, f"report.py references {sorted(used)}"


def test_no_module_replays_a_cycle_sequence():
    # a cycle is decided by its step (CayleyGraph.is_step_cycle); the
    # sequence replay is the tests' reference, and no level's joints are listed
    for path in sorted(PACKAGE.glob("*.py")):
        found = set(re.findall(r"\b(?:is_cycle|_joints)\b", path.read_text()))
        assert not found, f"{path.name} references {sorted(found)}"


def _imported(tree: ast.Module) -> set[str]:
    """The top-level packages that the module imports, anywhere in it."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    return imported


def test_no_module_imports_typing_pathlib_or_json():
    # every launch pays for what the package imports: records are
    # `collections.namedtuple`s, annotation names come from
    # `collections.abc`, files are opened with `open`, the report's JSON
    # is written by `report` itself, and its stages are timed by
    # `perf_counter` marks, not a `contextlib` context manager
    for name, tree in _trees().items():
        used = {"typing", "pathlib", "json", "contextlib"} & _imported(tree)
        assert not used, f"{name} imports {sorted(used)}"


def test_the_engine_samples_nothing_and_rotates_no_set():
    # one BFS from vertex 0 decides every distance by translation: no module
    # draws a sample or rotates an n-bit set, and no sweep takes a seed
    for name, tree in _trees().items():
        assert "random" not in _imported(tree), f"{name} imports random"
        defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert "rotate" not in defined, f"{name} defines rotate"
    for fn in (distance_sweep, run_verification):
        assert "seed" not in inspect.signature(fn).parameters, fn.__name__


def test_only_the_distance_sweep_builds_sets_of_multiples():
    # outside the kernel that defines it, `multiples` has one caller: the
    # sweep folds its distance classes from the six sets of multiples
    users = []
    for name, tree in _trees().items():
        for node in tree.body:
            where = f"{name}:{getattr(node, 'name', node.lineno)}"
            if name != "graph.py" and where != "oracles.py:distance_sweep" and "multiples" in _code_references(node):
                users.append(where)
    assert not users, f"sets of multiples built in {users}"
    [sweep] = [f for f in _trees()["oracles.py"].body if getattr(f, "name", None) == "distance_sweep"]
    assert "multiples" in _code_references(sweep)


# `owner.name` in backticks; a file name such as `cli.py` is not a reference
DOTTED = re.compile(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)")


def test_every_dotted_reference_in_the_docs_resolves():
    # a renamed or deleted module attribute or method cannot stay named in
    # README.md or a docstring; names of other packages (`os.open`) are skipped
    texts = {"README.md": (PACKAGE.parents[1] / "README.md").read_text()}
    for name, tree in _trees().items():
        nodes = [n for n in ast.walk(tree) if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef))]
        texts[name] = "\n".join(ast.get_docstring(n, clean=False) or "" for n in nodes)
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    # each class is looked up in the module that defines it
    classes = {
        name: value
        for module in sorted(modules - {"__init__", "__main__"})
        for name, value in vars(importlib.import_module(f"psqcayley.{module}")).items()
        if isinstance(value, type) and value.__module__ == f"psqcayley.{module}"
    }
    checked, broken = 0, []
    for where, text in texts.items():
        for owner, attr in DOTTED.findall(text):
            if owner in modules and attr != "py":
                target = importlib.import_module(f"psqcayley.{owner}")
            elif owner in classes:
                target = classes[owner]
            else:
                continue
            checked += 1
            if not hasattr(target, attr):
                broken.append(f"{where}: {owner}.{attr}")
    assert checked > 20
    assert not broken, f"dotted references that name nothing: {broken}"
