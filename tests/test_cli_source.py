"""cli.py only parses flags and maps UsageError to exit 2: every input check
lives in the command that reads the input.  The check reads the source with
``ast``, as tests/test_imports.py does."""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "opinv" / "cli.py"


def stray_checks(source: str) -> list:
    """(line, what) of every input check the source makes itself: an
    ``.error(...)`` call outside an ``except UsageError`` handler, a raise of
    ``ArgumentTypeError``, and a path test (``.is_file``, ``.is_dir``,
    ``.exists``)."""
    tree = ast.parse(source)
    mapped = {id(n) for h in ast.walk(tree)
              if isinstance(h, ast.ExceptHandler) and isinstance(h.type, ast.Name)
              and h.type.id == "UsageError"
              for n in ast.walk(h)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and "ArgumentTypeError" in ast.unparse(node):
            out.append((node.lineno, "raises ArgumentTypeError"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = node.func.attr
            if ((name == "error" and id(node) not in mapped)
                    or name in ("is_file", "is_dir", "exists")):
                out.append((node.lineno, name + "()"))
    return sorted(out)


def test_cli_maps_usage_errors_in_one_place():
    source = CLI.read_text()
    assert stray_checks(source) == []
    assert source.count(".error(") == 1


def test_checker_flags_what_it_should():
    source = ("import argparse\n"
              "def positive(s):\n"
              "    if int(s) < 1:\n"
              "        raise argparse.ArgumentTypeError('must be positive')\n"
              "def main(parser, args):\n"
              "    if not args.path.is_file():\n"
              "        parser.error('no file')\n"
              "    try:\n"
              "        run(args)\n"
              "    except UsageError as err:\n"
              "        parser.error(str(err))\n"
              "    except ValueError as err:\n"
              "        parser.error(str(err))\n")
    assert stray_checks(source) == [(4, "raises ArgumentTypeError"), (6, "is_file()"),
                                    (7, "error()"), (13, "error()")]
