"""The package's outputs on fixed inputs match the committed golden digests
(``tests/golden.py``; ``python tests/golden.py --update`` rewrites them)."""
import golden


def test_outputs_match_the_golden_digests():
    lines = golden.check()
    assert not lines, "golden digests moved:\n" + "\n".join(lines)


def test_moved_names_each_changed_missing_and_new_field():
    old = {"a": {"x": "1", "y": "2"}, "b": {"z": "3"}}
    new = {"a": {"x": "1", "y": "9"}, "c": {"z": "3"}}
    assert golden.moved(old, new) == ["a: y", "b: z", "c: z"]
