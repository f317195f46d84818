"""The package exports only what the package itself uses, every public
function and method has a caller in the package, no module imports what it
does not use, every module-level constant and record field is read, every
record has a field read by name, every CLI option is read by `cli.main`, no
module reads the environment, and every file is written as bytes.  The
checks read the sources with `ast`."""

import ast
import re
from pathlib import Path

import psqcayley

PACKAGE = Path(psqcayley.__file__).resolve().parent
# bound by bench/tracer.py, with no caller in the package; drop with ROADMAP item 1
TRACER_ONLY = {"element_order", "closed_form_distance_table", "bfs", "edges", "exact_max_independent_set"}


def _trees() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _code_references(tree: ast.Module) -> set[str]:
    """Every name read as code: a Name, or the attribute of an Attribute."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def _exports() -> set[str]:
    tree = _trees()["__init__.py"]
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _package_references() -> set[str]:
    return set().union(*(_code_references(t) for name, t in _trees().items() if name != "__init__.py"))


def test_every_export_has_a_caller_in_the_package():
    unused = _exports() - _package_references() - TRACER_ONLY
    assert not unused, f"exported but never referenced outside __init__: {sorted(unused)}"


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
    assert TRACER_ONLY <= _exports() | _public_functions()
    assert not TRACER_ONLY & _package_references()


def test_no_module_has_an_unused_import():
    problems = []
    for name, tree in _trees().items():
        if name == "__init__.py":
            continue  # its imports are the exports
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


def _records_and_reads() -> tuple[dict[str, tuple[str, ...]], set[str], set[tuple]]:
    """Each NamedTuple's fields, the attribute names read, and the name
    tuples that some assignment or loop unpacks into."""
    fields, read, unpacked = {}, set(), set()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) == "NamedTuple" for b in node.bases):
                fields[node.name] = tuple(f.target.id for f in node.body if isinstance(f, ast.AnnAssign))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Store):
                unpacked.add(tuple(getattr(e, "id", None) for e in node.elts))
    assert fields, "no NamedTuple found"
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


def test_no_module_reads_the_environment():
    # each value has one way in, the command line; no variable overrides it
    for name, tree in _trees().items():
        used = {"environ", "getenv"} & _code_references(tree)
        assert not used, f"{name} references {sorted(used)}"


def _open_mode(call: ast.Call) -> ast.expr | None:
    """The mode of open(file, mode) or path.open(mode), or None when absent."""
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
    kernel = {"neighborhood", "rotate", "multiples", "bitset"}
    [certify] = [f for f in _trees()["report.py"].body if getattr(f, "name", None) == "certify"]
    bodies = {name: _trees()[name] for name in ("structure.py", "hamiltonian.py", "parameters.py")}
    for name, tree in {**bodies, "report.certify": certify}.items():
        used = kernel & _code_references(tree)
        assert not used, f"{name} references {sorted(used)}"
    # the walk is checked level by level: no vertex replay, no mark per vertex
    used = {"is_cycle", "bytearray"} & _code_references(_trees()["hamiltonian.py"])
    assert not used, f"hamiltonian.py references {sorted(used)}"


def test_report_renders_lines_and_builds_no_n_bit_set():
    # the n-bit work of every verify line (the order classes, the members'
    # set, the sweep) lives in `oracles`; report.py only renders verdicts
    kernel = {"order_classes", "bitset", "multiples", "rotate", "neighborhood", "bit_count"}
    used = kernel & _code_references(_trees()["report.py"])
    assert not used, f"report.py references {sorted(used)}"


def test_no_module_replays_a_cycle_sequence():
    # a cycle is decided by its step (CayleyGraph.is_step_cycle); the
    # sequence replay is the tests' reference, and no level's joints are listed
    for path in sorted(PACKAGE.glob("*.py")):
        found = set(re.findall(r"\b(?:is_cycle|_joints)\b", path.read_text()))
        assert not found, f"{path.name} references {sorted(found)}"
