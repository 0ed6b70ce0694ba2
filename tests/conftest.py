"""Shared fixtures."""

import pytest

from harmonicity.cli import main


@pytest.fixture
def cli_stdout(capsys):
    """Run ``harmonicity ARGV...`` in process and return its stdout; the run
    must exit 0 with nothing on stderr.  Every output format is printed by
    the CLI alone, so format tests in any module go through here."""

    def run(*argv: str) -> str:
        assert main(list(argv)) == 0
        out, err = capsys.readouterr()
        assert err == ""
        return out

    return run
