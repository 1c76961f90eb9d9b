"""The benchmark's inputs are a function of the seed alone.

    python3 perfbench/test_inputs.py
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402
import run  # noqa: E402


class DocumentTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for planted in (0, 7):
            a = inputs.make_document(5, 300, planted)
            b = inputs.make_document(5, 300, planted)
            self.assertEqual(a[0], b[0])
            self.assertEqual(a[1], b[1])

    def test_other_seed_other_bytes(self):
        self.assertNotEqual(inputs.make_document(5, 300, 7)[0],
                            inputs.make_document(6, 300, 7)[0])

    def test_answers_match_the_request(self):
        xml, answers = inputs.make_document(9, 300, 7)
        self.assertEqual(answers["violations"], 7)
        self.assertTrue(xml.startswith(b"<r>\n<book isbn="))
        self.assertGreater(answers["nodes"], 300 * 10)
        self.assertEqual(sorted(answers["rows"]),
                         ["book", "chapter", "section"])


class WrittenFilesTest(unittest.TestCase):
    """The files run.py writes for a seed, byte for byte."""

    def files(self, seed):
        _, docs = run.doc_inputs(seed)
        out = {}
        for path, _ in docs.values():
            with open(path, "rb") as f:
                out[os.path.basename(path)] = f.read()
        return out

    def test_seed_determines_files(self):
        saved = run.DOC_BOOKS, os.environ.get("CARGO_TARGET_DIR")
        with tempfile.TemporaryDirectory() as tmp:
            run.DOC_BOOKS = 200
            os.environ["CARGO_TARGET_DIR"] = tmp
            try:
                first = self.files(3)
                self.assertEqual(sorted(first), ["bad.xml", "good.xml"])
                self.assertEqual(first, self.files(3))
                other = self.files(4)
                for name in first:
                    self.assertNotEqual(first[name], other[name])
            finally:
                run.DOC_BOOKS = saved[0]
                if saved[1] is None:
                    del os.environ["CARGO_TARGET_DIR"]
                else:
                    os.environ["CARGO_TARGET_DIR"] = saved[1]


class FdPoolTest(unittest.TestCase):
    POOL = {"true": ["k1 -> a", "k1 -> b", "k1, k2 -> c"],
            "false": ["e1 -> k1", "e2 -> k1", "e3 -> k1"]}

    def test_same_seed_same_draw(self):
        self.assertEqual(inputs.fd_pool(self.POOL, 3, 8),
                         inputs.fd_pool(self.POOL, 3, 8))

    def test_other_seed_other_draw(self):
        draws = {tuple(inputs.fd_pool(self.POOL, s, 8)) for s in range(6)}
        self.assertGreater(len(draws), 1)

    def test_draw_keeps_generator_fds_and_verdicts(self):
        pool = inputs.fd_pool(self.POOL, 4, 8)
        self.assertEqual(pool[:2], [("k1 -> a", True), ("e1 -> k1", False)])
        for fd, verdict in pool:
            self.assertIn(fd, self.POOL["true" if verdict else "false"])


if __name__ == "__main__":
    unittest.main()
