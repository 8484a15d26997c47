"""What the unrun-lines plugin (tests/unrun_lines.py) counts."""

from .unrun_lines import unrun_statements

SOURCE = '''
def f(x):
    """Docstring: no code."""
    if x:
        y = (
            x + 1
        )
        return y
    try:
        return 0
    except ValueError:  # pragma: no cover
        raise
        return 1
    return -1  # pragma: no cover


X = 1
'''


def test_counts_function_body_statements_once_and_honours_pragmas(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(SOURCE)
    # Module code and the docstring are not counted; the pragma takes
    # its own line and, on a block opener, the block under it.
    assert unrun_statements(path, set()) == [4, 5, 8, 9, 10]
    # Any line of a multi-line statement marks the statement as run.
    assert unrun_statements(path, {4, 6, 8}) == [9, 10]
