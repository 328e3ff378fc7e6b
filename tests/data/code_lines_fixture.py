"""A module docstring
over two lines."""

# A comment line.
import math  # code, with a comment


class Box:
    """A class docstring."""

    size = 2

    def area(self):
        """A function docstring,

        over three lines.
        """
        text = """a string
that is not a docstring"""
        return math.prod(
            (self.size, self.size)
        )


def f():
    x = 1
    "a second statement is not a docstring"
    return x
