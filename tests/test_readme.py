"""README's library example runs as written, so a removed or re-signed public
name fails the suite instead of leaving stale docs."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    first_variation, identity_err = map(float, capsys.readouterr().out.split())
    # the printed comments: critical, and the pointwise identity holds
    assert abs(first_variation) < 1e-8
    assert identity_err < 1e-8
