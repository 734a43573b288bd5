"""Help and usage text of the `km` command line.

`km` needs this text only to print help or to refuse a command line, so
``cli`` imports this module on those paths alone.  With bytecode caching
off every imported module is compiled from source, and a well-formed
command then compiles none of it.  Each text is read off the command table
that ``cli`` passes in, ``cli.COMMANDS``, after the command words read so
far.
"""

from __future__ import annotations

GROUP_HELP = {"weyl": "element arithmetic"}
GCM_HELP = "matrix file (JSON or plain rows; - for stdin)"


def usage(commands, words: list[str]) -> str:
    """The usage line of ``km`` followed by ``words``."""
    command = _named(commands, words)
    if command is None:
        tail = ["[--version]"] * (not words) + ["{" + ",".join(_subcommands(commands, words)) + "} ..."]
    else:
        tail = [f"[{_shown(f, kw)}]" if "nargs" in kw or f[0] == "-" and not kw.get("required")
                else _shown(f, kw) for f, kw in _arguments(command)]
    return " ".join(["usage: km", *words, "[-h]", *tail])


def text(commands, words: list[str]) -> str:
    """The help of ``km`` followed by ``words``: the usage line, then a line
    for each word that may follow, or for each positional and flag of the
    command they name."""
    command = _named(commands, words)
    if command is None:
        rows = [*_subcommands(commands, words).items(),
                *[("--version", "print the version")] * (not words)]
    else:
        rows = [(_shown(f, kw), kw.get("help", "")) for f, kw in _arguments(command)]
    lines = [f"  {left:<24}{line}".rstrip() for left, line in rows]
    about = [] if words else ["Combinatorial invariants of a generalized Cartan matrix", ""]
    return "\n".join([usage(commands, words), "", *about, *lines, ""])


def _named(commands, words: list[str]):
    return next((c for c in commands if c.name == "-".join(words)), None)


def _subcommands(commands, words: list[str]) -> dict[str, str]:
    """The words that may follow ``words`` (none, or a group), each with
    its help line."""
    depth, found = len(words), {}
    for command in commands:
        path = command.name.split("-")
        if path[:depth] == words:
            word = path[depth]
            found.setdefault(word, command.help if len(path) == depth + 1 else GROUP_HELP[word])
    return found


def _arguments(command) -> list[tuple[str, dict]]:
    """The positionals of ``command``, ``gcm`` first when it reads a
    matrix, then its flags."""
    gcm = [("gcm", {"help": GCM_HELP})] * command.reads_gcm
    return gcm + sorted(command.options, key=lambda option: option[0][0] == "-")


def _shown(flag: str, keywords: dict) -> str:
    """A positional, or a flag with its value, as usage and help show it."""
    if flag[0] != "-":
        return flag
    choices = keywords.get("choices")
    value = "{" + ",".join(choices) + "}" if choices else flag.lstrip("-").replace("-", "_").upper()
    return f"{flag} {value}"
