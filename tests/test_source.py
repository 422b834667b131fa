"""Checks on the package source itself."""

import ast
from pathlib import Path

import chipchain

PACKAGE = Path(chipchain.__file__).resolve().parent


def test_the_package_holds_no_assert_statement():
    """`python -O` strips asserts, so a check in the package raises instead."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _top_level(name: str):
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8")).body


def test_the_scenario_grammar_stays_in_config():
    """network_sim runs a parsed config; only config reads its text."""
    grammar = ("parse_", "load_", "_parse_", "bundled_scenario",
               "list_bundled_scenarios")
    defined = [node.name for node in _top_level("network_sim.py")
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith(grammar)]
    assert defined == []

    def imported(name: str) -> set[str]:
        return {node.module for node in _top_level(name)
                if isinstance(node, ast.ImportFrom) and node.level == 1}

    assert "_lines" not in imported("network_sim.py")
    assert "network_sim" not in imported("config.py")


def test_each_bound_is_read_by_the_module_that_owns_it():
    """identity checks every state index and key size, ledger every
    mining difficulty and chip_model every chip number, so no parser can
    grow a range check of its own; the package's __init__ only
    re-exports the bounds."""
    owners = {"MAX_STATE_INDEX": "identity.py",
              "MAX_MINING_DIFFICULTY": "ledger.py",
              "SUPPORTED_MODULUS_BITS": "identity.py",
              "MAX_ROWS": "chip_model.py",
              "MAX_REDUNDANCY_ROWS": "chip_model.py",
              "MAX_MEAN_FAILURES": "chip_model.py"}
    readers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            readers.update((name, path.name) for name in names
                           if name in owners
                           and not (path.name == "__init__.py"
                                    and isinstance(node, ast.ImportFrom)))
    assert readers == {(name, owner) for name, owner in owners.items()}


def test_errors_alone_defines_the_integer_rule():
    """Every owner takes its value through errors._integer, which raises
    the class the owner names; no module keeps a second copy."""
    defined = [path.name for path in sorted(PACKAGE.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef) and node.name == "_integer"]
    assert defined == ["errors.py"]


def _texts_read(tree):
    """Lines where a caught exception's text (str(exc), repr(exc), an
    f-string holding exc, exc.args) is used as anything but an argument
    of a call outside re: compared, matched, sliced or searched."""
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    for handler in ast.walk(tree):
        if not isinstance(handler, ast.ExceptHandler) or not handler.name:
            continue
        for node in ast.walk(handler):
            if isinstance(node, ast.Attribute) and node.attr == "args":
                text = node.value
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("str", "repr") and node.args):
                text = node.args[0]
            elif isinstance(node, ast.FormattedValue):
                text, node = node.value, parents[node]
            else:
                continue
            if not (isinstance(text, ast.Name) and text.id == handler.name):
                continue
            parent = parents[node]
            passed_on = (isinstance(parent, ast.Call) and node in parent.args
                         and not (isinstance(parent.func, ast.Attribute)
                                  and isinstance(parent.func.value, ast.Name)
                                  and parent.func.value.id == "re"))
            if not passed_on:
                yield node.lineno


def test_no_parser_reads_a_refusals_text():
    """A parser learns what was refused from where it called the owner,
    never from the wording of the owner's message: each exception's text
    is only handed on, into a message or a new exception."""
    read = [f"{path.name}:{line}" for path in sorted(PACKAGE.rglob("*.py"))
            for line in _texts_read(ast.parse(path.read_text(encoding="utf-8")))]
    assert read == []


def _is_target_shift(node) -> bool:
    """`1 << (256 - bits)`: the largest digest a difficulty lets through."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
            and isinstance(node.left, ast.Constant) and node.left.value == 1
            and isinstance(node.right, ast.BinOp)
            and isinstance(node.right.op, ast.Sub)
            and isinstance(node.right.left, ast.Constant)
            and node.right.left.value == 256)


def test_one_difficulty_rule_and_one_chain_verifier():
    """Only _pow turns a difficulty into a target (_target), which both
    pow_search and verify_chain compare digests against; the package has
    one verify_chain, which hashes each block's kept bytes once and calls
    neither block_hash nor leading_zero_bits.  Both stay public."""
    shifts, callers = [], {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        shifts += [path.name for node in ast.walk(tree)
                   if _is_target_shift(node)]
        for function in ast.walk(tree):
            if (isinstance(function, ast.FunctionDef)
                    and function.name in ("pow_search", "verify_chain")):
                callers.setdefault(function.name, []).append(
                    (path.name, {node.func.id for node in ast.walk(function)
                                 if isinstance(node, ast.Call)
                                 and isinstance(node.func, ast.Name)}))
    assert shifts == ["_pow.py"]
    [(pow_module, pow_calls)] = callers["pow_search"]
    [(chain_module, chain_calls)] = callers["verify_chain"]
    assert (pow_module, chain_module) == ("_pow.py", "ledger.py")
    assert "_target" in pow_calls & chain_calls
    assert not chain_calls & {"block_hash", "leading_zero_bits"}
    assert callable(chipchain.block_hash)
    assert callable(chipchain.leading_zero_bits)


def test_only_derive_core_holds_a_process_wide_cache():
    """functools.lru_cache / functools.cache decorate identity._derive_core
    and nothing else: a chip holds its PRN and a run its key pairs, so
    no second process-wide store may appear in the package."""
    cache_names = {"lru_cache", "cache"}
    decorated, other_uses = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and node.module == "functools"
                    for alias in node.names if alias.name in cache_names}

        def names_cache(node) -> bool:
            if isinstance(node, ast.Call):
                node = node.func
            return (isinstance(node, ast.Name) and node.id in imported
                    or isinstance(node, ast.Attribute)
                    and node.attr in cache_names
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "functools")

        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                for decorator in node.decorator_list:
                    if names_cache(decorator):
                        decorated.append(f"{path.name}:{node.name}")
                        decorators.update(ast.walk(decorator))
        other_uses += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                       if names_cache(node) and node not in decorators]
    assert decorated == ["identity.py:_derive_core"]
    assert other_uses == []


def _top_level_bindings(body):
    """Nodes binding names at module level: statements outside any
    function or class body, through if and try blocks."""
    for node in body:
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _top_level_bindings(getattr(node, field, ()))


def test_every_private_top_level_name_is_loaded_in_the_package():
    """A private module-level function, class or constant that no code
    in the package reads is dead code kept beside the live path (a test
    reaching it does not count)."""
    defined, loaded = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _top_level_bindings(tree.body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname for alias in node.names if alias.asname]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names = [name.id for target in targets
                         for name in ast.walk(target)
                         if isinstance(name, ast.Name)]
            else:
                continue
            defined += [(path.name, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        loaded.update(node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name)
                      and isinstance(node.ctx, ast.Load))
        loaded.update(node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute))
    assert [f"{module}:{name}" for module, name in defined
            if name not in loaded] == []
