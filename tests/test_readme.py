"""The README's library quickstart runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs():
    section = README.read_text().split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert 0.0 < namespace["overlap"] <= 1.0 and len(namespace["curve"]) == 5
    assert 0.0 < namespace["tau_opt"] <= 3.0 and 0.0 < namespace["best_overlap"] <= 1.0
