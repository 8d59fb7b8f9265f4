"""The CLI's commands, one module each, and what they share.

``commands/<name>.py`` holds the ``<name>`` command, and every such
module defines the same two names: ``OPTIONS``, the command's flags
with their ``add_argument`` keywords, in the order its usage lists
them, and ``run(args)``, which runs it and returns its exit status or
nothing.  A command whose flags are an either-or pair, exactly one of
them required, names them in ``ONE_OF`` too.  These declarations are
data, read by both of `enumerant.cli`'s routes: its reader, which reads
a well-formed line without argparse, and `enumerant.cli.build_parser`,
which adds them to the invoked command's subparser for every other
line.  Either route imports the invoked command's module alone and
binds its ``run``; no command module binds its own handler.  A type
function runs on both routes, so it imports argparse only to raise its
`ArgumentTypeError`, whose text argparse prints as it stands; and it
keeps a name of its own, which argparse prints for a `ValueError`.
This package holds what the commands share: the one emitter, `_emit`,
with the text of a cell, `_text`, and the chunk size it writes in,
`_CHUNK_CHARS`; and the count types `_positive` and `_nonnegative`.

Each output format is built here: plain (space-separated values, or
key=value lines for a single report), csv (with a header row; a cell
that holds a comma, a quote or a line break, CR or LF, is quoted, as is
the empty cell of a one-column row, and a quote inside doubles, the same
on every supported Python), or json-lines (one object per row; ints and
bools stay JSON numbers and booleans, a missing value is null, and
everything else, exact rationals included, is its text, like "7/12").
"""

import sys

# a cell's text by its exact type; a type not listed is its `str`
_TEXTS = {
    bool: ("false", "true").__getitem__,
    type(None): lambda _: "",
    tuple: lambda items: ",".join(map(str, items)),
}


def _text(value) -> str:
    return _TEXTS.get(type(value), str)(value)


# characters of rows joined into one write: a stream of rows is held one
# chunk at a time
_CHUNK_CHARS = 1 << 16


def _emit(fields, rows, fmt, report=False) -> None:
    """Print `rows`, tuples in `fields` order, in the format `fmt`.

    In plain, a single `report` prints as key=value lines, because
    reports carry free-text fields.  Every format builds one ``%``
    template per call from the field names (identifiers, so no ``%`` to
    escape) and fills it with each row's cells; csv's header is the field
    names through that template.  The lines go out in joined chunks of
    about `_CHUNK_CHARS` characters, one write each, so `rows` may be a
    stream of any length.  A chunk is written only once every row in it
    is built, so a stream that raises on row 1 writes nothing at all.
    """
    head = ""
    if fmt == "plain":
        cell = _text
        template = ("".join(f"{f}=%s\n" for f in fields) if report
                    else " ".join(["%s"] * len(fields)) + "\n")
    elif fmt == "csv":
        def cell(value) -> str:
            if type(value) is int:  # not a bool, whose text is true or false
                return str(value)
            text = _text(value)
            # an empty lone cell is quoted, or its line would read as a blank one
            if ("," in text or '"' in text or "\r" in text or "\n" in text
                    or not text and len(fields) == 1):
                return '"%s"' % text.replace('"', '""')
            return text

        template = ",".join(["%s"] * len(fields)) + "\n"
        head = template % tuple(fields)
    else:
        from json.encoder import encode_basestring_ascii as quote

        def cell(value) -> str:
            # ints and bools in `_text` are already JSON
            return ("null" if value is None else _text(value) if isinstance(value, int)
                    else quote(_text(value)))

        # the separators of `json.dumps`
        template = "{" + ", ".join(quote(f) + ": %s" for f in fields) + "}\n"
    # the csv header opens the first chunk, so it too waits for that chunk's rows
    write, chunk, size = sys.stdout.write, [head], len(head)
    for line in (template % tuple(map(cell, row)) for row in rows):
        chunk.append(line)
        size += len(line)
        if size >= _CHUNK_CHARS:
            write("".join(chunk))
            chunk, size = [], 0
    write("".join(chunk))


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        import argparse

        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        import argparse

        raise argparse.ArgumentTypeError("must be nonnegative")
    return value
