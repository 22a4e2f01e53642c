"""`python -m schurcalc`: cli.run(), which exits without interpreter
teardown once the command's output is flushed (see cli.py)."""

from .cli import run

run()
