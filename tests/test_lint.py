"""Static analysis over ``src/repro``: robustness anti-patterns.

Eight rules, enforced by walking every module's AST:

1. **No bare ``except:``** — it catches ``SystemExit`` and
   ``KeyboardInterrupt``, which breaks graceful shutdown (the bench CLI
   relies on ``KeyboardInterrupt`` propagating to flush partial
   artifacts).  Catch a concrete type, or ``Exception`` at worst.
2. **No ``time.time()``** — wall-clock time jumps (NTP, DST); every
   duration or deadline in the codebase must come from a monotonic
   source (``time.monotonic`` / ``time.perf_counter``).
3. **``except Exception`` must not swallow silently** — a handler that
   catches everything must either re-raise, return an error value, or
   emit observability (an event, a metric, or a ``*record*/*count*/
   *fail*`` helper that does so).  A silent ``pass`` hides the exact
   faults the serving layer exists to surface.
4. **No direct ``time.monotonic()`` / ``time.perf_counter()`` calls
   outside ``obs/clock.py``** — every timestamp must flow through the
   designated clock module so tests and the telemetry layer can reason
   about (and, where needed, intercept) a single clock source.
   Passing ``time.monotonic`` as a *reference* (e.g. an injectable
   ``clock=`` default) stays legal; only direct calls are banned.
5. **No float64 in the fast path** — modules under ``src/repro/fastpath``
   exist to be memory-lean (int8 weights, float32 activations); a
   ``np.float64`` attribute or a ``"float64"`` dtype string there
   silently doubles every buffer it touches.  Flagged forms:
   ``np.float64`` / ``numpy.float64`` and the exact string literal
   ``"float64"`` (so ``dtype="float64"`` and ``astype("float64")`` are
   both caught; prose merely *mentioning* the word is not).
6. **No unguarded model-output conversions in the serving layers** —
   modules under ``src/repro/serve`` and ``src/repro/shard`` must not
   call ``math.exp(...)`` or wrap an ``.estimate(...)`` /
   ``.estimate_many(...)`` call in ``float(...)`` outside the
   sanctioned guard/sanitize helpers.  A raw conversion is how
   unclamped model garbage leaks to a caller: every model output in
   the serving layers must pass through a function whose name marks it
   as a judging site (``*sanit*``, ``*guard*``, ``*clamp*``,
   ``*validate*``, the ``_serve_batch_inner`` chain walker, or the
   ``*last_resort*`` floor).
7. **No non-control payloads over shard pipes** — modules under
   ``src/repro/shard`` must not call ``.send(...)``: bulk data crosses
   the process boundary through the shared-memory ring framed by
   ``codec.py``, never pickled over a duplex pipe.  The two data-plane
   modules (``supervisor.py``, ``codec.py``) may send **control frames
   only** — a single tuple literal whose first element is a string
   constant drawn from the fixed control-op vocabulary (``serve``,
   ``serve_slot``, ``result``, ``swap`` ...).  Anything else —
   ``conn.send(model)``, a computed op name, keyword payloads — is how
   a "tiny control message" quietly regrows into a pickle of the whole
   estimator.
8. **One ``ServedEstimate`` builder** — ``ServedEstimate(...)`` is
   called only in ``serve/service.py``; every other module builds its
   answers through ``served_estimate()``.  The frozen-dataclass
   constructor costs twice the builder, and two ways of building an
   answer record are two ways for its fields to drift apart.  No
   module, ``serve/service.py`` included, copies a record with
   ``dataclasses.replace`` (as ``replace(...)`` or
   ``dataclasses.replace(...)``): the copy runs that same constructor
   again, so a field an answer needs (its ``trace_id``) goes into the
   builder instead.  Methods named ``replace`` (``Query.replace``,
   ``os.replace``, ``str.replace``) are out of scope.

A handler that is *deliberately* silent (e.g. a child process whose
parent observes the dead pipe) opts out with a ``# lint-ok: <reason>``
comment on the ``except`` line — greppable, justified, and local.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).parent.parent / "src" / "repro"

#: method names whose invocation inside a handler counts as "observed":
#: exact telemetry verbs, plus helper-prefix conventions used across the
#: codebase (``_record_failure``, ``_count_attempt``, ``_fail`` ...).
TELEMETRY_ATTRS = {"emit", "inc", "observe", "set", "warning", "error"}
TELEMETRY_SUBSTRINGS = ("record", "count", "fail", "emit", "metric", "event")

PRAGMA = "# lint-ok:"

#: the one module allowed to call the stdlib monotonic clocks directly
CLOCK_MODULE = ("obs", "clock.py")

#: monotonic-clock callables that must be reached via ``obs/clock.py``
CLOCK_ATTRS = ("monotonic", "perf_counter")

#: package directory whose modules must stay float64-free (rule 5)
FASTPATH_DIR = "fastpath"

#: package directories whose model-output conversions are policed (rule 6)
SERVING_DIRS = ("serve", "shard")

#: enclosing-function name fragments that mark a sanctioned judging
#: site for model outputs (rule 6)
SANCTIONED_FRAGMENTS = (
    "sanit",
    "guard",
    "clamp",
    "validate",
    "serve_batch_inner",
    "last_resort",
)

#: the estimator-protocol calls whose raw result rule 6 protects
ESTIMATE_ATTRS = ("estimate", "estimate_many")

#: package directory whose pipe traffic is policed (rule 7)
SHARD_DIR = "shard"

#: the data-plane modules allowed to send control frames (rule 7)
SEND_MODULES = ("codec.py", "supervisor.py")

#: the complete control-frame vocabulary of the shard duplex pipes:
#: parent -> worker requests and worker -> parent replies.  A frame's
#: first tuple element must be one of these string constants.
#: the one module allowed to call the ``ServedEstimate`` constructor (rule 8)
SERVED_MODULE = ("serve", "service.py")

CONTROL_OPS = {
    "serve_slot",
    "ping",
    "stop",
    "swap",
    "result_slot",
    "error",
    "pong",
    "stopped",
    "swapped",
    "swap_failed",
}


def _python_sources() -> list[Path]:
    files = sorted(SRC_ROOT.rglob("*.py"))
    assert len(files) > 50, "src/repro should be a sizeable package"
    return files


def _is_exception_handler(handler: ast.ExceptHandler) -> bool:
    """True for ``except Exception`` / ``except (..., Exception, ...)``."""

    def names(node: ast.expr | None) -> list[str]:
        if node is None:
            return []
        if isinstance(node, ast.Tuple):
            return [n for elt in node.elts for n in names(elt)]
        if isinstance(node, ast.Name):
            return [node.id]
        if isinstance(node, ast.Attribute):
            return [node.attr]
        return []

    return "Exception" in names(handler.type)


def _observes(handler: ast.ExceptHandler) -> bool:
    """Does the handler re-raise, return, or emit telemetry?

    A bare ``continue``/``pass`` deliberately does not count: skipping
    to the next item without a trace is exactly the silent swallow the
    rule exists to catch.
    """
    for node in ast.walk(handler):
        if isinstance(node, (ast.Raise, ast.Return)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = None
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            if name is not None:
                lowered = name.lower()
                if name in TELEMETRY_ATTRS or any(
                    s in lowered for s in TELEMETRY_SUBSTRINGS
                ):
                    return True
    return False


def _has_pragma(lines: list[str], handler: ast.ExceptHandler) -> bool:
    """``# lint-ok:`` on the except line (or its first body line)."""
    candidates = [handler.lineno]
    if handler.body:
        candidates.append(handler.body[0].lineno)
    return any(
        PRAGMA in lines[lineno - 1] for lineno in candidates if lineno <= len(lines)
    )


def _line_has_pragma(lines: list[str], lineno: int) -> bool:
    return lineno <= len(lines) and PRAGMA in lines[lineno - 1]


def _float64_violation(node: ast.AST, lines: list[str]) -> bool:
    """Rule 5 matcher: ``np.float64``/``numpy.float64`` or ``"float64"``.

    Only the exact string literal matches, so a docstring *mentioning*
    float64 (as part of a sentence) never trips the rule.
    """
    if (
        isinstance(node, ast.Attribute)
        and node.attr == "float64"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    ):
        return not _line_has_pragma(lines, node.lineno)
    if isinstance(node, ast.Constant) and node.value == "float64":
        return not _line_has_pragma(lines, node.lineno)
    return False


def _is_sanctioned(stack: list[str]) -> bool:
    """Is any enclosing function a designated model-output judging site?"""
    return any(
        fragment in name for name in stack for fragment in SANCTIONED_FRAGMENTS
    )


def _wraps_estimate_call(call: ast.Call) -> bool:
    """``float(...)`` whose argument subtree invokes ``.estimate*(...)``."""
    for arg in call.args:
        for node in ast.walk(arg):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ESTIMATE_ATTRS
            ):
                return True
    return False


def _model_output_violations(
    tree: ast.AST, lines: list[str]
) -> list[tuple[int, str]]:
    """Rule 6 matcher: ``(lineno, kind)`` pairs, ``kind`` in exp/float.

    Walks with an explicit enclosing-function-name stack (``ast.walk``
    flattens scope away) so conversions inside ``*guard*``/``*sanit*``
    helpers stay legal while the same call one function up is flagged.
    """
    found: list[tuple[int, str]] = []

    def visit(node: ast.AST, stack: list[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack = stack + [node.name]
        if (
            isinstance(node, ast.Call)
            and not _is_sanctioned(stack)
            and not _line_has_pragma(lines, node.lineno)
        ):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "exp"
                and isinstance(func.value, ast.Name)
                and func.value.id == "math"
            ):
                found.append((node.lineno, "exp"))
            elif (
                isinstance(func, ast.Name)
                and func.id == "float"
                and _wraps_estimate_call(node)
            ):
                found.append((node.lineno, "float"))
        for child in ast.iter_child_nodes(node):
            visit(child, stack)

    visit(tree, [])
    return found


def _is_control_frame(call: ast.Call) -> bool:
    """Single positional tuple-literal arg led by a known control op.

    The shape is deliberately strict: the whole frame must be written
    as a literal at the call site (so the vocabulary is greppable) and
    the op must be a string constant in :data:`CONTROL_OPS` — a
    computed op name or a frame built elsewhere doesn't qualify.
    """
    if len(call.args) != 1 or call.keywords:
        return False
    frame = call.args[0]
    if not isinstance(frame, ast.Tuple) or not frame.elts:
        return False
    op = frame.elts[0]
    return isinstance(op, ast.Constant) and op.value in CONTROL_OPS


def _send_violations(
    tree: ast.AST, lines: list[str], *, allow_control: bool
) -> list[int]:
    """Rule 7 matcher: line numbers of banned ``.send(...)`` calls."""
    found: list[int] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "send"
            and not _line_has_pragma(lines, node.lineno)
            and not (allow_control and _is_control_frame(node))
        ):
            found.append(node.lineno)
    return found


def _served_estimate_calls(tree: ast.AST, lines: list[str]) -> list[int]:
    """Rule 8 matcher: line numbers of ``ServedEstimate(...)`` calls."""
    found: list[int] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
        else:
            name = getattr(func, "id", None)
        if name == "ServedEstimate" and not _line_has_pragma(lines, node.lineno):
            found.append(node.lineno)
    return found


def _dataclass_replace_calls(tree: ast.AST, lines: list[str]) -> list[int]:
    """Rule 8 matcher: line numbers of ``replace(...)`` and
    ``dataclasses.replace(...)`` calls."""
    found: list[int] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        bare = isinstance(func, ast.Name) and func.id == "replace"
        qualified = (
            isinstance(func, ast.Attribute)
            and func.attr == "replace"
            and isinstance(func.value, ast.Name)
            and func.value.id == "dataclasses"
        )
        if (bare or qualified) and not _line_has_pragma(lines, node.lineno):
            found.append(node.lineno)
    return found


def _violations_in(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    found: list[str] = []
    rel = path.relative_to(SRC_ROOT.parent.parent)
    is_clock_module = tuple(path.parts[-2:]) == CLOCK_MODULE
    is_fastpath = FASTPATH_DIR in path.parts
    is_serving = any(d in path.parts for d in SERVING_DIRS)
    is_shard = SHARD_DIR in path.parts
    for lineno in _dataclass_replace_calls(tree, lines):
        found.append(
            f"{rel}:{lineno}: dataclasses.replace() copies a record through "
            "its frozen-dataclass __init__ — pass the field to the builder "
            "(served_estimate(..., trace_id)); `# lint-ok: <reason>` to opt out"
        )
    if tuple(path.parts[-2:]) != SERVED_MODULE:
        for lineno in _served_estimate_calls(tree, lines):
            found.append(
                f"{rel}:{lineno}: ServedEstimate(...) outside serve/service.py "
                "— build answers with served_estimate(); "
                "`# lint-ok: <reason>` to opt out"
            )
    if is_shard:
        for lineno in _send_violations(
            tree, lines, allow_control=path.name in SEND_MODULES
        ):
            found.append(
                f"{rel}:{lineno}: non-control payload over a shard pipe — "
                "frame bulk data through the codec/ring; pipes carry only "
                "tuple-literal control frames from supervisor.py/codec.py; "
                "`# lint-ok: <reason>` to opt out"
            )
    if is_serving:
        for lineno, kind in _model_output_violations(tree, lines):
            what = (
                "math.exp() on a model output"
                if kind == "exp"
                else "float() around an .estimate*() call"
            )
            found.append(
                f"{rel}:{lineno}: {what} outside a guard/sanitize helper — "
                "route it through a *guard*/*sanit*/*clamp*/*validate* "
                "function; `# lint-ok: <reason>` to opt out"
            )
    for node in ast.walk(tree):
        if is_fastpath and _float64_violation(node, lines):
            found.append(
                f"{rel}:{node.lineno}: float64 in the fast path — "
                "repro.fastpath is int8/float32 only; "
                "`# lint-ok: <reason>` to opt out"
            )
        if isinstance(node, ast.ExceptHandler):
            if node.type is None and not _has_pragma(lines, node):
                found.append(f"{rel}:{node.lineno}: bare `except:`")
            elif (
                _is_exception_handler(node)
                and not _observes(node)
                and not _has_pragma(lines, node)
            ):
                found.append(
                    f"{rel}:{node.lineno}: `except Exception` swallows "
                    "silently (re-raise, return, or emit an obs "
                    "event/metric; `# lint-ok: <reason>` to opt out)"
                )
        elif isinstance(node, ast.Call):
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ):
                continue
            if func.attr == "time":
                found.append(
                    f"{rel}:{node.lineno}: time.time() (wall clock) — use "
                    "repro.obs.clock monotonic()/perf_counter()"
                )
            elif (
                func.attr in CLOCK_ATTRS
                and not is_clock_module
                and not _line_has_pragma(lines, node.lineno)
            ):
                found.append(
                    f"{rel}:{node.lineno}: direct time.{func.attr}() — import "
                    "it from repro.obs.clock (the designated clock module); "
                    "`# lint-ok: <reason>` to opt out"
                )
    return found


def test_no_robustness_antipatterns():
    violations = [v for path in _python_sources() for v in _violations_in(path)]
    assert not violations, "\n".join(violations)


class TestLintRules:
    """The lint rules themselves, on synthetic snippets."""

    @staticmethod
    def check(
        snippet: str,
        *,
        is_clock_module: bool = False,
        is_fastpath: bool = False,
        is_serving: bool = False,
        is_shard: bool = False,
        allow_control: bool = False,
        is_served_module: bool = False,
    ) -> list[str]:
        lines = snippet.splitlines()
        found = []
        tree = ast.parse(snippet)
        found.extend("replace" for _ in _dataclass_replace_calls(tree, lines))
        if not is_served_module:
            found.extend("served" for _ in _served_estimate_calls(tree, lines))
        if is_shard:
            found.extend(
                "send"
                for _ in _send_violations(tree, lines, allow_control=allow_control)
            )
        if is_serving:
            found.extend(kind for _, kind in _model_output_violations(tree, lines))
        for node in ast.walk(tree):
            if is_fastpath and _float64_violation(node, lines):
                found.append("float64")
            if isinstance(node, ast.ExceptHandler):
                if node.type is None and not _has_pragma(lines, node):
                    found.append("bare")
                elif (
                    _is_exception_handler(node)
                    and not _observes(node)
                    and not _has_pragma(lines, node)
                ):
                    found.append("silent")
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "time"
                    and func.attr in CLOCK_ATTRS
                    and not is_clock_module
                    and not _line_has_pragma(lines, node.lineno)
                ):
                    found.append("clock")
        return found

    def test_flags_bare_except(self):
        assert self.check("try:\n    x = 1\nexcept:\n    pass\n") == ["bare"]

    def test_flags_silent_swallow(self):
        assert self.check("try:\n    x = 1\nexcept Exception:\n    x = 2\n") == [
            "silent"
        ]

    def test_flags_exception_in_tuple(self):
        snippet = "try:\n    x = 1\nexcept (ValueError, Exception):\n    x = 2\n"
        assert self.check(snippet) == ["silent"]

    def test_accepts_reraise(self):
        snippet = (
            "try:\n    x = 1\nexcept Exception as e:\n    raise ValueError from e\n"
        )
        assert self.check(snippet) == []

    def test_accepts_return(self):
        snippet = (
            "def f():\n"
            "    try:\n"
            "        return g()\n"
            "    except Exception:\n"
            "        return None\n"
        )
        assert self.check(snippet) == []

    def test_accepts_telemetry_call(self):
        snippet = (
            "try:\n"
            "    x = 1\n"
            "except Exception:\n"
            "    events.emit('boom')\n"
            "    x = 2\n"
        )
        assert self.check(snippet) == []

    def test_accepts_pragma(self):
        snippet = (
            "try:\n"
            "    x = 1\n"
            "except Exception:  # lint-ok: tested elsewhere\n"
            "    pass\n"
        )
        assert self.check(snippet) == []

    def test_silent_continue_is_still_silent(self):
        snippet = (
            "for i in range(3):\n"
            "    try:\n"
            "        x = 1\n"
            "    except Exception:\n"
            "        continue\n"
        )
        assert self.check(snippet) == ["silent"]

    def test_concrete_exception_types_are_out_of_scope(self):
        snippet = "try:\n    x = 1\nexcept ValueError:\n    pass\n"
        assert self.check(snippet) == []

    def test_flags_direct_monotonic_call(self):
        snippet = "import time\nstart = time.monotonic()\n"
        assert self.check(snippet) == ["clock"]

    def test_flags_direct_perf_counter_call(self):
        snippet = "import time\nstart = time.perf_counter()\n"
        assert self.check(snippet) == ["clock"]

    def test_clock_reference_is_legal(self):
        # Injectable-clock defaults pass the callable, not its result.
        snippet = (
            "import time\n"
            "def f(clock=time.monotonic):\n"
            "    return clock()\n"
        )
        assert self.check(snippet) == []

    def test_clock_call_accepts_pragma(self):
        snippet = (
            "import time\n"
            "start = time.perf_counter()  # lint-ok: measuring the shim\n"
        )
        assert self.check(snippet) == []

    def test_clock_module_is_exempt(self):
        snippet = "import time\nnow = time.monotonic()\n"
        assert self.check(snippet, is_clock_module=True) == []

    def test_flags_np_float64_attribute_in_fastpath(self):
        snippet = "import numpy as np\nw = np.zeros(4, dtype=np.float64)\n"
        assert self.check(snippet, is_fastpath=True) == ["float64"]

    def test_flags_numpy_float64_attribute_in_fastpath(self):
        snippet = "import numpy\nx = numpy.float64(3.0)\n"
        assert self.check(snippet, is_fastpath=True) == ["float64"]

    def test_flags_float64_dtype_string_in_fastpath(self):
        snippet = "import numpy as np\nw = np.zeros(4, dtype='float64')\n"
        assert self.check(snippet, is_fastpath=True) == ["float64"]
        assert self.check("x = y.astype('float64')\n", is_fastpath=True) == [
            "float64"
        ]

    def test_float64_legal_outside_fastpath(self):
        snippet = "import numpy as np\nw = np.zeros(4, dtype=np.float64)\n"
        assert self.check(snippet) == []

    def test_float64_mention_in_docstring_is_legal(self):
        snippet = '"""Unlike the float64 trainers, this module is lean."""\n'
        assert self.check(snippet, is_fastpath=True) == []

    def test_float64_accepts_pragma(self):
        snippet = (
            "import numpy as np\n"
            "w = np.float64(0.0)  # lint-ok: interop shim\n"
        )
        assert self.check(snippet, is_fastpath=True) == []

    def test_float32_in_fastpath_is_legal(self):
        snippet = "import numpy as np\nw = np.zeros(4, dtype=np.float32)\n"
        assert self.check(snippet, is_fastpath=True) == []

    def test_flags_math_exp_in_serving(self):
        snippet = (
            "import math\n"
            "def serve(model, query):\n"
            "    return math.exp(model.predict_log(query))\n"
        )
        assert self.check(snippet, is_serving=True) == ["exp"]

    def test_flags_float_of_estimate_in_serving(self):
        snippet = (
            "def serve(tier, query):\n"
            "    return float(tier.estimator.estimate(query))\n"
        )
        assert self.check(snippet, is_serving=True) == ["float"]

    def test_flags_float_of_estimate_many_in_serving(self):
        snippet = (
            "def serve(tier, queries):\n"
            "    return float(tier.estimate_many(queries)[0])\n"
        )
        assert self.check(snippet, is_serving=True) == ["float"]

    def test_guard_helper_is_sanctioned(self):
        snippet = (
            "def _guard_clamp(tier, query):\n"
            "    return float(tier.estimate(query))\n"
        )
        assert self.check(snippet, is_serving=True) == []

    def test_sanitize_helper_is_sanctioned(self):
        snippet = (
            "import math\n"
            "def _sanitize(model, query):\n"
            "    return math.exp(model.predict_log(query))\n"
        )
        assert self.check(snippet, is_serving=True) == []

    def test_sanctioned_nesting_covers_inner_lambda_free_helpers(self):
        # An inner helper defined inside a sanctioned function inherits
        # the sanction — the judging site encloses the conversion.
        snippet = (
            "def _validate_values(tier, queries):\n"
            "    def convert(q):\n"
            "        return float(tier.estimate(q))\n"
            "    return [convert(q) for q in queries]\n"
        )
        assert self.check(snippet, is_serving=True) == []

    def test_float_of_plain_name_is_legal_in_serving(self):
        # Converting an already-judged value is fine; the rule targets
        # the direct model call, not every float() in the layer.
        snippet = "def serve(raw):\n    return float(raw)\n"
        assert self.check(snippet, is_serving=True) == []

    def test_serving_conversion_accepts_pragma(self):
        snippet = (
            "def serve(tier, query):\n"
            "    return float(tier.estimate(query))  # lint-ok: exact tier\n"
        )
        assert self.check(snippet, is_serving=True) == []

    def test_model_output_rule_scoped_to_serving_dirs(self):
        snippet = (
            "import math\n"
            "def train_step(model, x):\n"
            "    return math.exp(model.predict_log(x))\n"
        )
        assert self.check(snippet) == []

    def test_flags_send_in_shard_module(self):
        # Outside the data-plane modules no .send() is tolerated at all,
        # control frame or not.
        snippet = "conn.send(('ping', 7))\n"
        assert self.check(snippet, is_shard=True) == ["send"]

    def test_flags_send_of_object_in_data_plane(self):
        snippet = "conn.send(model)\n"
        assert self.check(snippet, is_shard=True, allow_control=True) == ["send"]

    def test_accepts_control_frame_in_data_plane(self):
        snippet = "conn.send(('result_slot', request_id, slot, nbytes, snap))\n"
        assert self.check(snippet, is_shard=True, allow_control=True) == []

    def test_flags_pickled_batch_frame_in_data_plane(self):
        # Query batches and answers cross only through the shm ring: a
        # frame that carries them over the pipe is no control frame.
        for snippet in (
            "conn.send(('serve', request_id, queries, trace_ctx))\n",
            "conn.send(('result', request_id, values, snap))\n",
        ):
            assert self.check(
                snippet, is_shard=True, allow_control=True
            ) == ["send"]

    def test_flags_unknown_op_in_data_plane(self):
        snippet = "conn.send(('upload_model', weights))\n"
        assert self.check(snippet, is_shard=True, allow_control=True) == ["send"]

    def test_flags_computed_op_in_data_plane(self):
        # The op must be a string constant: a computed name defeats the
        # greppable-vocabulary property the rule protects.
        snippet = "conn.send((op_name, request_id))\n"
        assert self.check(snippet, is_shard=True, allow_control=True) == ["send"]

    def test_flags_keyword_send_in_data_plane(self):
        snippet = "conn.send(('serve_slot', request_id, slot, nbytes), flags=0)\n"
        assert self.check(snippet, is_shard=True, allow_control=True) == ["send"]

    def test_send_accepts_pragma(self):
        snippet = "conn.send(payload)  # lint-ok: test fixture pipe\n"
        assert self.check(snippet, is_shard=True) == []

    def test_send_rule_scoped_to_shard_dir(self):
        assert self.check("sock.send(data)\n") == []

    def test_flags_served_estimate_constructor(self):
        snippet = (
            "answer = ServedEstimate(\n"
            "    estimate=1.0, tier='worker', tier_index=0, degraded=False,\n"
            "    latency_seconds=0.0, attempts=(),\n"
            ")\n"
        )
        assert self.check(snippet) == ["served"]

    def test_flags_qualified_served_estimate_constructor(self):
        snippet = "answer = service.ServedEstimate(1.0, 'w', 0, False, 0.0, ())\n"
        assert self.check(snippet) == ["served"]

    def test_served_estimate_constructor_legal_in_service_module(self):
        snippet = (
            "answer = ServedEstimate.__new__(ServedEstimate)\n"
            "ServedEstimate(1.0)\n"
        )
        assert self.check(snippet, is_served_module=True) == []

    def test_builder_and_type_references_are_legal(self):
        snippet = (
            "def f(results: list[ServedEstimate]) -> ServedEstimate:\n"
            "    isinstance(results[0], ServedEstimate)\n"
            "    return served_estimate(1.0, 'worker', 0, False, 0.0, ())\n"
        )
        assert self.check(snippet) == []

    def test_served_estimate_accepts_pragma(self):
        snippet = "ServedEstimate(1.0)  # lint-ok: test fixture\n"
        assert self.check(snippet) == []

    def test_flags_dataclass_replace_of_an_answer(self):
        snippet = "served = replace(served, trace_id=root.trace_id)\n"
        assert self.check(snippet) == ["replace"]

    def test_flags_qualified_dataclass_replace(self):
        snippet = "served = dataclasses.replace(served, trace_id=7)\n"
        assert self.check(snippet) == ["replace"]

    def test_dataclass_replace_flagged_in_service_module_too(self):
        snippet = "results = [replace(s, trace_id=t) for s in results]\n"
        assert self.check(snippet, is_served_module=True) == ["replace"]

    def test_replace_methods_are_legal(self):
        snippet = (
            "narrow = query.replace(pred.column, tighter)\n"
            "os.replace(tmp_name, path)\n"
            "label = name.replace('-', '_')\n"
        )
        assert self.check(snippet) == []

    def test_dataclass_replace_accepts_pragma(self):
        snippet = "copy = replace(config, seed=1)  # lint-ok: not an answer\n"
        assert self.check(snippet) == []
