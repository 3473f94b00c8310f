"""Compare the tokenizer with the per-character reference on every code point.

    PYTHONPATH=src python tests/sweep_tokenizer.py

Each of the contexts ``x1{c}2 a`` and `` {c}x1'`` is tokenized once for each
of the 0x110000 code points put in place of ``{c}``, by
``parsing._tokenize`` (with ``parsing._start`` for the positions) and by
``helpers.reference_tokenize``.  The script prints the number of texts
compared and the first few on which the two disagree, in the token texts,
their starts, or the error message and position, and exits with 1 when
there are any.  The file name keeps pytest from collecting it.
"""

import sys

from helpers import code_point_texts, tokenizer_mismatches


def main() -> int:
    contexts = ["x1{c}2 a", " {c}x1'"]
    bad = tokenizer_mismatches(code_point_texts(range(0x110000), contexts))
    print(f"{0x110000 * len(contexts)} texts compared, {len(bad)} disagree")
    for text in bad[:10]:
        print(ascii(text))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
