"""The README's library examples, run as written."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs_as_a_doctest():
    # the first ```python block after the "Library quick start" heading
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Library quick start")) + len("```python\n")
    block = text[start:text.index("```", start)]
    test = doctest.DocTestParser().get_doctest(block, {}, "README quick start", str(README), 0)
    assert len(test.examples) == 6
    report: list[str] = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.failed == 0, "".join(report)
