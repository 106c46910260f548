"""The README's library tour runs and prints the values its comments promise."""
import re
from pathlib import Path

import pslb

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_tour_values():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    namespace, shown = {}, []
    for line in block.splitlines():
        code = line.split("#", 1)[0]
        if "# ->" in line:
            shown.append(eval(code, namespace))
        else:
            exec(code, namespace)
    crt, twins, pair, reports = shown
    assert crt == 2291
    assert twins == 465
    assert (pair.p1, pair.p2) == (19, 79)
    assert len(reports) == 18 and all(isinstance(r, pslb.ClaimReport) for r in reports)
