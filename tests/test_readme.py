"""The examples in README.md: every `$ hyplp ...` line in a text block runs
through the CLI, and the output lines shown under it must appear in that
order ("..." marks lines the README leaves out); every `hyplp bound` line in
a sh block must exit 0; the python block runs, and each line that ends in a
`# value` comment evaluates to an object with that repr."""

import shlex
from pathlib import Path

from hyplp.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """[(argv, expected lines)] from the ```text blocks, in order."""
    examples, in_text, shown = [], False, None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_text, shown = line == "```text", None
        elif in_text and line.startswith("$ "):
            shown = []
            examples.append((shlex.split(line[2:]), shown))
        elif shown is not None and line.strip() not in ("", "..."):
            shown.append(line.rstrip())
    return examples


def test_readme_examples_print_what_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert len(examples) >= 6
    for argv, expected in examples:
        if argv[0] == "printf":
            # printf 'TEXT' > FILE
            assert argv[2] == ">" and len(argv) == 4, argv
            Path(argv[3]).write_text(argv[1].replace("\\n", "\n"))
            continue
        assert argv[0] == "hyplp", argv
        code = main(argv[1:])
        out = capsys.readouterr().out.splitlines()
        assert code == 0, argv
        pos = 0
        for want in expected:
            assert want in out[pos:], (argv, want, out)
            pos = out.index(want, pos) + 1


def readme_bound_commands():
    """argv of every `hyplp bound ...` line in the ```sh blocks, with its
    trailing `# comment` stripped."""
    commands, in_sh = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("hyplp bound "):
            commands.append(shlex.split(line, comments=True))
    return commands


def test_readme_bound_commands_exit_0(capsys):
    commands = readme_bound_commands()
    assert len(commands) >= 6
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().out


def readme_python_lines():
    """The lines of the ```python blocks, in order."""
    lines, in_python = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_python = line == "```python"
        elif in_python:
            lines.append(line)
    return lines


def test_readme_python_block_shows_each_repr():
    scope, shown = {}, 0
    for line in readme_python_lines():
        code, _, want = line.partition("  # ")
        if want:
            assert repr(eval(code, scope)) == want.strip(), line
            shown += 1
        else:
            exec(line, scope)
    assert shown >= 3
