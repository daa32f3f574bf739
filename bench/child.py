"""Child process for the set-up probe and the traced run.

    python child.py setup <module.function> -- <jflow arguments>
    python child.py trace <spans.json> -- <jflow arguments>

``setup`` imports jflow.cli, hooks the named function wherever a loaded
jflow module holds it, and runs the command.  The first call into the
hooked function prints the monotonic clock and ends the process: the
parent subtracts its launch time to get the set-up time.

``trace`` times the import of jflow.cli, replaces every public function
of every jflow module wherever a loaded jflow module holds it, runs the
command in process and writes one span per call to <spans.json>.  A span
is [id, parent id, "module.function", calling module, start, end]; the
spans stay in memory until the command has returned.
"""

import os
import sys
import time
import types


def _jflow_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "jflow" or name.startswith("jflow."))]


def _public_functions():
    """{"module.function": function} for functions each module defines."""
    found = {}
    for mod in _jflow_modules():
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__):
                found[f"{mod.__name__[len('jflow.'):]}.{name}"] = obj
    return found


def _replace_everywhere(originals: dict, wrappers: dict) -> None:
    """Swap each original for its wrapper in every loaded jflow module."""
    by_id = {id(fn): wrappers[key] for key, fn in originals.items()}
    for mod in _jflow_modules():
        for name, obj in list(vars(mod).items()):
            if id(obj) in by_id:
                setattr(mod, name, by_id[id(obj)])


def _setup(target: str, argv: list) -> int:
    import jflow.cli
    originals = _public_functions()
    if target not in originals:
        print(f"setup probe: {target} not found", file=sys.stderr)
        return 3

    def reached(*args, **kwargs):
        os.write(1, f"REACHED {time.perf_counter()!r}\n".encode())
        os._exit(0)

    _replace_everywhere({target: originals[target]}, {target: reached})
    jflow.cli.main(argv)
    print(f"setup probe: {target} was never called", file=sys.stderr)
    return 3


def _trace(spans_path: str, argv: list) -> int:
    start = time.perf_counter()
    import jflow.cli
    import_s = time.perf_counter() - start
    import json
    import threading

    clock = time.perf_counter
    spans = []
    local = threading.local()
    notes = {}

    def wrap(key, fn):
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                # a worker thread's calls hang off the command's root span
                stack = local.stack = [0]
            caller = sys._getframe(1).f_globals.get("__name__", "?")
            span = [len(spans), stack[-1], key, caller, clock(), None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[5] = clock()
            if key == "flow.run_flow":
                # FlowResult.state.step_count; left out if the field is gone
                steps = getattr(getattr(result, "state", None),
                                "step_count", None)
                if steps is not None:
                    notes["flow.accepted_steps"] = notes.get(
                        "flow.accepted_steps", 0) + steps
            return result
        return traced

    originals = _public_functions()
    _replace_everywhere(originals,
                        {key: wrap(key, fn) for key, fn in originals.items()})
    # jflow.cli.main is wrapped too: its span is the root, span 0
    local.stack = [None]
    code = jflow.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"exit_code": code, "import_s": import_s,
                   "functions": sorted(originals), "notes": notes,
                   "spans": spans}, handle)
    return code


def main() -> int:
    mode, arg, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py setup|trace <arg> -- <jflow args>")
    if mode == "setup":
        return _setup(arg, argv)
    return _trace(arg, argv)


if __name__ == "__main__":
    sys.exit(main())
