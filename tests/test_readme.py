"""The README's library tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_tour_runs():
    text = README.read_text()
    tour = re.search(r"^## Library tour\n.*?^```python\n(.*?)^```", text, re.S | re.M)
    assert tour, "README has no Python block under '## Library tour'"
    exec(compile(tour.group(1), f"{README}:library tour", "exec"), {"__name__": "readme"})
