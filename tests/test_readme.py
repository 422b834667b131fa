"""README's command lines, run in order as a user would type them.

Every `chipchain ...` line of README's `sh` blocks goes through
`cli.dispatch` in a temporary directory: `/tmp/chips` points there,
`net.cfg` is README's `ini` block, `<hex from keygen>` is the key the
keygen line printed and `path/to/custom.cfg` is a copy of the bundled
fig10 config.  A README edit must keep every line working.
"""

import importlib.resources
import re
import shlex
from pathlib import Path

from chipchain.cli import dispatch

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCK = re.compile(r"^```(\w+)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def readme_blocks(language):
    return [body for lang, body in _BLOCK.findall(README.read_text())
            if lang == language]


def test_readme_command_lines_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (net_cfg,) = readme_blocks("ini")
    (tmp_path / "net.cfg").write_text(net_cfg)
    custom = tmp_path / "path" / "to" / "custom.cfg"
    custom.parent.mkdir(parents=True)
    custom.write_text((importlib.resources.files("chipchain") / "scenarios"
                       / "fig10-coexistence.cfg").read_text())

    commands = [line for body in readme_blocks("sh")
                for line in body.splitlines() if line.startswith("chipchain ")]
    assert commands
    public_key = None
    for line in commands:
        line = line.replace("/tmp/chips", str(tmp_path / "chips"))
        if "<hex from keygen>" in line:
            line = line.replace("<hex from keygen>", public_key)
        result = dispatch(shlex.split(line, comments=True)[1:])
        assert result.exit_code == 0, (line, result.diagnostics)
        found = re.search(r"\bpk=([0-9a-f]+)", result.stdout_payload)
        if found:
            public_key = found[1]
        if " ledger replace " in line:
            assert "rebuild_match=yes" in result.stdout_payload
