"""Run the command-line interface: python -m collatzmc COMMAND [OPTIONS]."""

from .cli import console_entry

if __name__ == "__main__":
    console_entry()
