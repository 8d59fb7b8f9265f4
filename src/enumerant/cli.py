"""Command-line front end.

Every subcommand is a pure function of its arguments: same invocation,
byte-identical output.  Each command builds a header of column names
and rows, each row a tuple in header order, most of them straight from
the library's records; one emitter, `commands._emit`, prints them in the
``--format`` chosen: plain, csv or json-lines.  Decimals are truncated,
never rounded; the library refuses a negative value or digit count,
which the count types already keep out.

Exit codes: 0 success, 1 domain error (a typed one-line report on
stderr, e.g. ``NotInImage equivalent=1``) or a stdout closed before the
output ended (one stderr line), 2 usage error.  Only the commands whose
verdict can fail, ``diag --verify`` and ``theorem --exhaustive``, return
a status of their own; every other command returns nothing, which is 0.

A CLI call is mostly process start, import and exit.  This module holds
the entry alone: the nine help lines, the reader, the parser, `main` and
`entry`.  Each command is a module of its own, ``commands/<name>.py``,
that declares its options once, as data (``OPTIONS``, and ``ONE_OF``
for an either-or pair), and defines ``run(args)``.  A line takes one of
two routes, and both read those declarations:

- `_read` reads the canonical form alone: the command word, then
  ``--flag value`` pairs of that command's flags or ``--format``, each at
  most once, no value starting with ``-``.  It converts the values with
  the declared types and returns the namespace argparse would, without
  loading argparse, ``gettext`` and ``locale`` or building a parser,
  which took about 4.5 ms of each cold call (the ``cli`` bench's median
  call fell from 61.5 to 57.0 ms, CPython 3.11).
- Any other line, and any value a type refuses, goes to argparse:
  `build_parser` and its ``parse_args``, unchanged.  So help, usage
  errors and every form the reader leaves alone (``--flag=value``, an
  abbreviated or repeated flag, ``--``) keep argparse's bytes.
  argparse is the CLI's grammar and its only error reporter; the reader
  is tested against it.

Either route imports the invoked command's module alone, so a call
compiles and runs the code of one command.  The process entry, `entry`,
runs `main` with the cyclic collector paused and freezes the collector
on its way out, so no collection walks every object that start and
import made.  Then, unless a profiler, tracer, monitoring tool or
debugger watches the process, `entry` runs the atexit callbacks,
flushes stdout and stderr and ends the process by `os._exit`, so the
interpreter does not tear its modules down either.  Called in process,
`main` ends no process: it returns the status, and argparse's own
`SystemExit` reaches its caller.

Two rules keep each call's load set small, and no one module shows
them.  No command module imports ``enumerant.cli``: under ``python -m
enumerant.cli`` this module runs as ``__main__``, so such an import
would compile and run it a second time.  And each command imports its
library modules in the function that uses them, when it runs, not at
its module level (``errors`` aside, which this module has loaded).
Which modules each command loads is stated once, by ``TestLoadSets`` in
``tests/test_cli.py``.
"""

import atexit
import gc
import os
import sys
from importlib import import_module
from types import SimpleNamespace

from .errors import DomainError, _paused_gc

# each command's help line, in the order `enumerant -h` lists them; the
# command's options and `run` are in `commands/<name>.py`
_COMMANDS = {
    "enum": "first N entries with their dyadic values",
    "locate": "index of a bit string or of a dyadic value",
    "approx": "hunt a real through the enumeration to a depth",
    "diag": "stage-N diagonal certificate, or verify one",
    "harmonic": "doubling blocks of the harmonic series",
    "series": "exact partial sums and enclosures",
    "theorem": "even-set counting check, single or exhaustive",
    "pair": "diagonal pairing code of (i, j), or its inverse",
    "table": "growth tables: 1 (n, 2n, n^2, 1/n) or 2 (towers)",
}

# the option every command takes, first in its usage line
_FORMAT = {"--format": {"choices": ("plain", "csv", "json-lines"), "default": "plain",
                        "help": "output shape (default plain)"}}


def _declared(name):
    """The module of command `name`, its options with ``--format`` first,
    as ``add_argument`` keywords by flag, and its either-or flags."""
    module = import_module(f".commands.{name}", __package__)
    return module, _FORMAT | module.OPTIONS, getattr(module, "ONE_OF", ())


def _read(argv):
    """The namespace that ``build_parser(argv).parse_args(argv)`` returns,
    read without argparse, or None.

    Only the canonical form is read: a command word, then ``--flag value``
    pairs, each flag one of that command's or ``--format`` and given at
    most once, every required flag and one of an either-or pair present,
    and no value starting with ``-`` (argparse reads every other value
    as a value, the empty one too).  The values are converted in argv
    order with the declared types and checked against their choices;
    the flags not given take their defaults.  A `DomainError` from a type
    propagates at once, as it does from argparse, which would meet it
    first too: nothing before it fails.  Any other form or failure
    returns None, and argparse reads the line from the start.  The
    namespace's ``parser`` is built only if the command asks it for a
    usage error.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    module, options, one_of = _declared(argv[0])
    given = dict(zip(argv[1::2], argv[2::2]))
    if (len(argv) != 2 * len(given) + 1 or not given.keys() <= options.keys()
            or any(value.startswith("-") for value in given.values())
            or one_of and len(given.keys() & one_of) != 1
            or any(spec.get("required") and flag not in given
                   for flag, spec in options.items())):
        return None
    values = {flag: spec.get("default") for flag, spec in options.items()}
    for flag, text in given.items():
        spec = options[flag]
        try:
            values[flag] = spec.get("type", str)(text)
        except DomainError:
            raise
        except Exception:  # argparse runs the type again, and reports or raises
            return None
        if "choices" in spec and values[flag] not in spec["choices"]:
            return None
    return SimpleNamespace(command=argv[0], func=module.run, parser=_Subparser(argv),
                           **{flag[2:].replace("-", "_"): value
                              for flag, value in values.items()})


class _Subparser:
    """The ``parser`` of a namespace that `_read` made: a usage error that
    the command finds past parsing (``pair``'s) builds argparse's parser of
    the same line then, and reports through it."""

    def __init__(self, argv):
        self.argv = argv

    def error(self, message: str) -> None:
        build_parser(self.argv).parse_args(self.argv).parser.error(message)


def build_parser(argv) -> "argparse.ArgumentParser":
    """The parser of the command line `argv`.

    Every command is registered with its help line, so the top-level help,
    usage and invalid-choice error list all nine, but only the command
    named by the first word of `argv` that is a command name gets its
    arguments, ``-h`` among them.  That word is the one argparse
    dispatches on, if it dispatches at all: an option takes no word
    after it (the top level's one option, ``-h``, takes no value, and an
    unknown one is set aside), and a word before it that is not an
    option is refused as an invalid choice before any command parses.
    With no command word no command has arguments, and argparse's own
    error, or the top-level help, is all that shows.  The invoked
    command's subparser gets its module's declared options and holds its
    `run` as ``func`` and itself as ``parser``, for a usage error found
    past parsing.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="enumerant",
        description="Exact arithmetic around a breadth-first enumeration of "
                    "binary strings: bijections, certified reals, diagonal "
                    "certificates, series, and growth tables.")
    sub = parser.add_subparsers(dest="command", required=True)
    command = next((word for word in argv if word in _COMMANDS), None)
    for name, summary in _COMMANDS.items():
        p = sub.add_parser(name, help=summary, add_help=name == command)
        if name == command:
            module, options, one_of = _declared(name)
            group = p.add_mutually_exclusive_group(required=True) if one_of else p
            for flag, spec in options.items():
                (group if flag in one_of else p).add_argument(flag, **spec)
            p.set_defaults(func=module.run, parser=p)
    return parser


def main(argv=None) -> int:
    """Run the command line `argv` (default ``sys.argv[1:]``) in process
    and return its exit status.

    The status is 0 on success; 1 on a domain error, printed as one
    typed line on stderr, or on a stdout closed before the output ended;
    and 2 on a usage error.  argparse reports a usage error of its own,
    and ``-h``, by raising `SystemExit` (2, or 0 for help), which reaches
    the caller; a `ValueError` from the command returns 2.

    The int->str digit limit is lifted while the command runs and
    restored on every way out, `SystemExit` included.  The caller's
    cyclic collector is left as it was: `main` neither pauses nor
    freezes it, which only the process entry, `entry`, does.  A line that
    `_read` reads leaves it no cyclic garbage.  A line that goes to
    argparse leaves it about 200 objects: the parser tree that
    `build_parser` makes, whose parsers, argument groups and actions
    refer to each other.
    """
    # printing exact values is the point: no int->str digit limit (0).  The
    # limit is process-wide; restore it on every exit, SystemExit included
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        argv = sys.argv[1:] if argv is None else argv
        # a type function's budget refuses during parsing, as a DomainError
        args = _read(argv) or build_parser(argv).parse_args(argv)
        # only a command whose verdict can fail returns a status
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code or 0
    except DomainError as err:
        print(str(err), file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout is flushed once more on the way out: send it nowhere
        sink = os.open(os.devnull, os.O_WRONLY)
        os.dup2(sink, sys.stdout.fileno())
        os.close(sink)
        print("error: stdout closed before the output ended", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(previous)


def entry() -> None:
    """The process entry of the ``enumerant`` script and of ``python -m
    enumerant.cli``: `main` on ``sys.argv``, then the end of the process,
    with `main`'s status, at its last flush.

    `main` runs with the cyclic collector paused (`errors._paused_gc`),
    so no collection walks the modules the command imports, nor the
    records it builds: no command leaves cyclic garbage behind per row,
    so the pause frees nothing late.  argparse's own `SystemExit` gives
    the status too: 0 after help, 2 after a usage error.  On every way
    out, a crash included, the collector is on again and the objects
    still tracked move to its permanent generation, so the next
    allocation does not start a young collection over everything the
    command made, nor do the interpreter's last collections walk it.

    Then the atexit callbacks run, stdout and stderr are flushed and the
    process ends by `os._exit`, so the interpreter does not tear its
    modules down: work that every call paid after its last byte was
    written.  The CLI starts no thread and writes no file but the two
    streams, so the teardown has nothing left to finish.

    The interpreter's own exit is kept, by `sys.exit`, when something
    watches the process, since its report or prompt comes from code
    that runs after the `SystemExit`: a profile or trace function, a
    `sys.monitoring` tool (cProfile is one on 3.12 and later), or a
    loaded `bdb`, the debugger under pdb, whose ``continue`` with no
    breakpoint clears the trace function.  No CLI call loads `bdb` of
    its own.  It is kept, too, when a flush raises: the exit flushes
    again and reports the failure, with status 120, as it always has.
    A crash propagates as it did.
    """
    try:
        status = _paused_gc(main)()
    except SystemExit as stop:
        status = stop.code
    finally:
        gc.freeze()
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12 and later
    if (sys.getprofile() is not None or sys.gettrace() is not None or "bdb" in sys.modules
            or monitoring is not None
            and any(monitoring.get_tool(tool) is not None for tool in range(6))):
        sys.exit(status)
    atexit._run_exitfuncs()  # it clears them: none runs twice
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    entry()
