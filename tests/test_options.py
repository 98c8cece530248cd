"""Every parameter default of `src/ncindex` is a settable option; keep
their number from growing unnoticed."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ncindex"

#: the parameter defaults the package may carry
MAX_DEFAULTS = 69


def _defaults(node, prefix):
    """`function(param)` for every defaulted parameter under node."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults):]
            named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
            for a in named:
                yield f"{prefix}{child.name}({a.arg})"
            name = f"{prefix}{child.name}."
        elif isinstance(child, ast.ClassDef):
            name = f"{prefix}{child.name}."
        yield from _defaults(child, name)


def parameter_defaults():
    return [found for path in sorted(SRC.glob("*.py"))
            for found in _defaults(ast.parse(path.read_text()),
                                   f"{path.stem}.")]


def test_defaults_are_counted_per_parameter():
    source = ("def f(a, b=1, *, c=2, d):\n"
              "    def g(x=0):\n        pass\n"
              "class C:\n    def h(self, y=3, /, z=4):\n        pass\n")
    assert list(_defaults(ast.parse(source), "m.")) == [
        "m.f(b)", "m.f(c)", "m.f.g(x)", "m.C.h(y)", "m.C.h(z)"]


def test_parameter_defaults_do_not_grow():
    found = parameter_defaults()
    assert len(found) <= MAX_DEFAULTS, (
        f"{len(found)} parameter defaults in src/ncindex, at most "
        f"{MAX_DEFAULTS}: " + ", ".join(found))
