from symchar.cli import run

run()
