"""Laws stated once as source templates, compiled into closures.

A template is the source of one function whose body ends in its only
return. Law binds one, by name, to other laws and to values: numbers and
objects. Each name the body reads is an argument, a local, a binding, or
one of math's cos, sin and sqrt and the builtins. A bound law is read
only by a statement `target = name(args)`, with a name or a tuple of
names as the target and names or expressions as the arguments.

Law.closure() compiles a law into a function with its template's
signature. Each bound law's statements are spliced in place of its
call, with its arguments substituted and its locals and bindings renamed
apart, so the function does the same float operations, in the same
order, as calling each bound law's own closure, and makes no call for
it. The code is compiled on first use, once per shape: the template and
the names of its bindings, and likewise for each bound law; the last
SHAPES shapes are kept. Each build's values are then bound by name as
closure variables. No value is ever written into the source.

A law's one function returns its Law, which callers call: its first call
compiles its closure and keeps it. Only the arm's RK4 step is taken as
its closure(), which a rollout's loop calls with no Law between. Laws
called alike add up into one with law_sum, a template per added law.
"""

from __future__ import annotations

import ast
import math
from functools import lru_cache
from itertools import count


class Law:
    """The template `source` with the Laws `laws` and the `values` bound
    by name. Called, it is its closure, compiled on the first call and
    kept."""

    __slots__ = ("source", "laws", "values", "function")

    def __init__(self, source: str, laws=None, /, **values):
        self.source, self.laws, self.values = source, laws or {}, values
        self.function = None

    def __call__(self, *args):
        if self.function is None:
            self.function = self.closure()
        return self.function(*args)

    def closure(self):
        """The law as a function of its template's arguments."""
        values = []
        return _compile(_shape(self, values))(*values)


def law_sum(laws, zero: Law) -> Law:
    """The Laws `laws` added in order onto the value of the Law `zero`, as
    one law: `zero` itself for no law, and a lone law itself."""
    laws = tuple(laws)
    if len(laws) < 2:
        return laws[0] if laws else zero
    total = zero
    for law in laws:
        total = Law(_sum_template(zero.source), {"before": total, "law": law})
    return total


@lru_cache(maxsize=None)
def _sum_template(zero: str) -> str:
    """The template of one more law added onto a sum, `before`, of laws
    called as the template `zero` is: zero's signature, defaults
    included, and each argument passed on to both."""
    args = _function(zero).args
    call = ", ".join(arg.arg for arg in args.args)
    return (f"def total({ast.unparse(args)}):\n"
            f"    value = before({call})\n"
            f"    term = law({call})\n"
            f"    return value + term\n")


def _function(source: str) -> ast.FunctionDef:
    """A fresh syntax tree of the template, for a splice to rewrite."""
    return ast.parse(source).body[0]


@lru_cache(maxsize=None)
def _stored(source: str) -> frozenset:
    """The names a template assigns: its locals."""
    return frozenset(node.id for node in ast.walk(_function(source))
                     if isinstance(node, ast.Name)
                     and isinstance(node.ctx, ast.Store))


def _shape(law: Law, values: list) -> tuple:
    """(source, names of its values, (name, shape) of each bound law) of
    `law`. Its values, then each bound law's, are appended to `values` in
    the order _names gives their names."""
    values += law.values.values()
    if not law.laws:
        return law.source, tuple(law.values), ()
    return law.source, tuple(law.values), tuple(
        [(name, _shape(part, values)) for name, part in law.laws.items()])


def _names(shape: tuple, path: str, names: list):
    """Append to `names` the names the values of a law at `path` are
    bound as, in _shape's order."""
    names += [path + name for name in shape[1]]
    for name, part in shape[2]:
        _names(part, f"{path}{name}__", names)


# compiled shapes kept: the whole test suite compiles 90
SHAPES = 256


@lru_cache(maxsize=SHAPES)
def _compile(shape: tuple):
    """The function of a law's values, in _shape's order, that returns
    its closure: compiled once per shape."""
    values = []
    _names(shape, "", values)
    function = _function(shape[0])
    if function.name in values:
        raise ValueError(f"template {function.name} is named as a binding")
    returns = function.body[-1]
    body, result = _Splice(shape, "", None, count(1), {}).inline(function)
    function.body = body + [ast.copy_location(ast.Return(result), returns)]
    bind = ast.parse(f"def bind({', '.join(values)}):\n    return law")
    bind.body[0].body[-1].value.id = function.name
    bind.body[0].body.insert(0, function)
    namespace = {"cos": math.cos, "sin": math.sin, "sqrt": math.sqrt}
    exec(compile(bind, f"<law {function.name}>", "exec"), namespace)
    return namespace["bind"]


def _assign(target, value, like: ast.AST) -> ast.Assign:
    """`target = value` at the place of `like`."""
    return ast.fix_missing_locations(ast.copy_location(
        ast.Assign([target], value), like))


class _Splice(ast.NodeTransformer):
    """The statements of one law's template, renamed for one call site.

    `path` prefixes the names of the law's bindings and `args` gives the
    caller's expression of each argument; args None keeps the names of a
    closure's own arguments, locals and values. `sites` numbers the call
    sites, whose locals it renames apart, and `forward` maps a local the
    law returns to the name of the caller's target, which it takes."""

    def __init__(self, shape: tuple, path: str, args, sites, forward: dict):
        self.source = shape[0]
        self.names = {name: path + name for name in shape[1]}
        self.laws = {name: (part, f"{path}{name}__")
                     for name, part in shape[2]}
        self.site = "" if args is None else f"{path}{next(sites)}__"
        self.args, self.sites, self.forward = args, sites, forward

    def inline(self, function: ast.FunctionDef):
        """(statements, result expression) of `function`'s body."""
        body = []
        if self.args is not None:
            params, defaults = function.args.args, function.args.defaults
            missing = len(params) - len(self.args)
            if not 0 <= missing <= len(defaults):
                raise ValueError(f"template {function.name} takes "
                                 f"{len(params)} arguments")
            given = self.args + defaults[len(defaults) - missing:]
            for param, value in zip(params, given):
                if isinstance(value, ast.Name):
                    self.names[param.arg] = value.id
                else:
                    name = self.site + param.arg
                    body.append(_assign(ast.Name(name, ast.Store()), value,
                                        value))
                    self.names[param.arg] = name
            stored = _stored(self.source)
            if stored & self.names.keys():
                raise ValueError(f"template {function.name} assigns an "
                                 "argument or a binding")
            self.names.update({name: self.forward.get(name, self.site + name)
                               for name in stored})
        *statements, result = function.body
        if not isinstance(result, ast.Return):
            raise ValueError(f"template {function.name} must end in return")
        for statement in statements:
            spliced = self.visit(statement)
            body.extend(spliced if isinstance(spliced, list) else [spliced])
        return body, self.visit(result.value)

    def visit_Name(self, node: ast.Name):
        node.id = self.names.get(node.id, node.id)
        return node

    def visit_Assign(self, node: ast.Assign):
        call = node.value
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id in self.laws):
            return self.generic_visit(node)
        shape, path = self.laws[call.func.id]
        target = self.visit(node.targets[0])
        args = [self.visit(arg) for arg in call.args]
        function = _function(shape[0])
        targets, results = [target], [function.body[-1].value]
        if (isinstance(target, ast.Tuple)
                and isinstance(results[0], ast.Tuple)):
            targets, results = target.elts, results[0].elts
        # a local the law returns takes the name of its target, unless the
        # law is passed that name, the only one of the caller's it reads
        passed = {node.id for node in (*args, *function.args.defaults)
                  if isinstance(node, ast.Name)}
        forward = {value.id: name.id
                   for name, value in zip(targets, results, strict=True)
                   if isinstance(name, ast.Name)
                   and isinstance(value, ast.Name) and name.id not in passed}
        body, result = _Splice(shape, path, args, self.sites,
                               forward).inline(function)
        results = result.elts if len(targets) > 1 else [result]
        pairs = [(name, value) for name, value in zip(targets, results)
                 if not (isinstance(name, ast.Name)
                         and isinstance(value, ast.Name)
                         and name.id == value.id)]
        if not pairs:
            return body
        if len(pairs) == 1:
            return body + [_assign(*pairs[0], node)]
        # one assignment, so that no value reads a target it sets
        return body + [_assign(ast.Tuple([name for name, _ in pairs],
                                         ast.Store()),
                               ast.Tuple([value for _, value in pairs],
                                         ast.Load()), node)]

    def visit_Call(self, node: ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in self.laws:
            raise ValueError(f"law {node.func.id} is called outside "
                             "`target = law(args)`")
        return self.generic_visit(node)
