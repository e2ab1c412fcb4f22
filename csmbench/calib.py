"""A fixed pure-Python program that measures how fast the host runs Python now.

The benchmark runs it as a child process between csm commands. It builds and
sorts a table of small objects under string keys, the kind of work csm's
parser and model do, and imports nothing from csm, so its time moves with the
host's speed and never with a change to csm. ``run.py`` divides every csm time
of a run by the typical time of this program in the same run.
"""

N = 40_000


class Node:
    __slots__ = ("name", "index", "links")

    def __init__(self, name: str, index: int, links: list[int]) -> None:
        self.name = name
        self.index = index
        self.links = links


def main() -> int:
    table = {}
    for i in range(N):
        name = f"k{i * 7919 % 100_003}"
        table[name] = Node(name, i, [i, i + 1])
    ordered = sorted(table.values(), key=lambda node: node.name)
    return sum(len(node.name) + len(node.links) for node in ordered)


if __name__ == "__main__":
    main()
