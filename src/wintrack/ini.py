"""The one INI reader, for tracker ``--config`` files and scenario files, in
``configparser``'s dialect: ``%(key)s`` interpolation, ``;`` and ``#``
comments (also after a value), and a DEFAULT section whose keys belong to
every section."""

import configparser


def read_ini(path, keys, error) -> dict[str, dict]:
    """{section: {key: parsed value}}; ``keys(section)`` gives a section's
    {key: parser}, or None for a section the file may not have.  A file that
    does not parse, an unknown section or key, and a value its parser rejects
    with ValueError each raise ``error``, naming the file, section and key."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    out: dict[str, dict] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
        for section in parser.sections():
            parsers = keys(section)
            if parsers is None:
                raise error(f"{path}: unknown section [{section}]")
            values = out[section] = {}
            for key, raw in parser[section].items():
                if key not in parsers:
                    raise error(f"{path}: unknown key {key!r} in [{section}]")
                try:
                    values[key] = parsers[key](raw)
                except ValueError as exc:
                    raise error(f"{path}: bad value {raw!r} for {key!r} in [{section}]: "
                                f"{exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise error(f"{path}: {exc}") from exc
    return out
