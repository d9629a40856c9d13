"""The one renderer (:mod:`repro.common.render`): stdout text tables,
Markdown tables, the Markdown-to-HTML converter and the report writer
that picks a format from the file suffix.
"""

import pytest

from repro.common.render import (
    format_series,
    format_table,
    json_text,
    markdown_table,
    markdown_to_html,
    write_document,
)


def _body(markdown):
    """The converted page between ``<body>`` and ``</body>``."""
    page = markdown_to_html(markdown, "t")
    return page[page.index("<body>") + len("<body>"):page.index("</body>")]


# -- text tables --------------------------------------------------------------

class TestTables:
    def test_format_table_aligns_columns(self):
        text = format_table(["name", "ns"],
                            [["read", 1234.0], ["gc", 7.5]],
                            title="latency")
        lines = text.splitlines()
        assert lines[0] == "latency"
        assert lines[1].split(" | ")[0].strip() == "name"
        assert set(lines[2]) <= {"-", "+"}
        # every row renders to the same width
        assert len({len(line) for line in lines[1:]}) == 1
        assert "1234" in text and "7.5" in text

    def test_float_formatting_scales_precision(self):
        text = format_table(["v"], [[0.0], [0.1234], [1.26], [512.7]])
        assert "0.123" in text     # small: 3 decimals
        assert "1.3" in text       # mid: 1 decimal
        assert "513" in text       # large: integral
        assert "\n0 " in text or text.splitlines()[2].strip() == "0"

    def test_format_series_merges_x_axis(self):
        text = format_series(
            {"amber": {1: 10.0, 4: 40.0}, "mqsim": {1: 11.0, 2: 22.0}},
            x_label="qd")
        lines = text.splitlines()
        assert lines[0].split(" | ")[0].strip() == "qd"
        xs = [line.split(" | ")[0].strip() for line in lines[2:]]
        assert xs == ["1", "2", "4"]
        # missing points render empty, not crash
        assert [c.strip() for c in lines[3].split(" | ")] == \
            ["2", "", "22.0"]


# -- markdown tables ----------------------------------------------------------

class TestMarkdownTable:
    def test_header_rule_and_rows(self):
        text = markdown_table(["name", "ns", ""], "lrl",
                              [["`read`", 12, ""], ["gc", "7.5", "x"]])
        assert text.splitlines() == [
            "| name | ns |  |",
            "|---|---:|---|",
            "| `read` | 12 |  |",
            "| gc | 7.5 | x |",
        ]

    def test_no_rows_leaves_header_and_rule(self):
        assert markdown_table(["a"], "r", []) == "| a |\n|---:|"

    def test_align_needs_one_letter_per_column(self):
        with pytest.raises(ValueError, match="align"):
            markdown_table(["a", "b"], "l", [])


# -- markdown to html ---------------------------------------------------------

class TestMarkdownToHtml:
    def test_page_is_self_contained_and_title_escaped(self):
        page = markdown_to_html("# T", "a <b>")
        assert page.startswith("<!DOCTYPE html>")
        assert "<title>a &lt;b&gt;</title>" in page
        assert "<style>" in page and page.endswith("</body></html>\n")
        for external in ("href=", "src=", "http://", "https://"):
            assert external not in page, external

    def test_headings_to_level_three(self):
        assert _body("# a\n## b `c`\n### d <e>") == (
            "<h1>a</h1>\n<h2>b <code>c</code></h2>\n<h3>d &lt;e&gt;</h3>")

    def test_table_has_one_header_row(self):
        body = _body(markdown_table(["k", "v"], "lr", [["<x>", 1], ["y", 2]]))
        assert body == ("<table>\n<tr><th>k</th><th>v</th></tr>\n"
                        "<tr><td>&lt;x&gt;</td><td>1</td></tr>\n"
                        "<tr><td>y</td><td>2</td></tr>\n</table>")

    def test_fenced_code_is_an_escaped_pre(self):
        body = _body("```\n[0.0, 1.0) <a> █\n  `kept`\n```\nafter")
        assert body == "<pre>[0.0, 1.0) &lt;a&gt; █\n  `kept`</pre>\n" \
                       "<p>after</p>"

    def test_top_level_bullets_stay_paragraphs(self):
        assert _body("* **A** `x`\n* B") == \
            "<p>**A** <code>x</code></p>\n<p>B</p>"

    def test_indented_bullets_nest(self):
        body = _body("Worst:\n\n  * one\n    * one.a\n    * `one.b`\n"
                     "  * two\n\nend")
        assert body == ("<p>Worst:</p>\n<ul>\n<li>one\n<ul>\n<li>one.a\n"
                        "<li><code>one.b</code>\n</ul>\n<li>two\n</ul>\n"
                        "<p>end</p>")

    def test_lists_close_at_the_end_of_the_page(self):
        assert _body("  * a\n    * b") == \
            "<ul>\n<li>a\n<ul>\n<li>b\n</ul>\n</ul>"

    def test_details_keep_their_label_escaped(self):
        body = _body("<details><summary>a<b> (1 metrics)</summary>\n\n"
                     + markdown_table(["m", "v"], "lr", [["x", 1]])
                     + "\n\n</details>")
        assert body == ("<details><summary>a&lt;b&gt; (1 metrics)</summary>\n"
                        "<table>\n<tr><th>m</th><th>v</th></tr>\n"
                        "<tr><td>x</td><td>1</td></tr>\n</table>\n"
                        "</details>")


# -- report files -------------------------------------------------------------

class TestWriteDocument:
    MARKDOWN = "# R\n\n| k | v |\n|---|---:|\n| a | 1 |\n"
    DOC = {"b": [1, 2], "a": "x"}

    def test_markdown_by_default(self, tmp_path):
        text = write_document(tmp_path / "r.md", self.MARKDOWN, "R", self.DOC)
        assert text == self.MARKDOWN
        assert (tmp_path / "r.md").read_text(encoding="utf-8") == text

    def test_html_suffix_converts(self, tmp_path):
        for name in ("r.html", "r.HTM"):
            text = write_document(tmp_path / name, self.MARKDOWN, "R")
            assert text == markdown_to_html(self.MARKDOWN, "R")
            assert (tmp_path / name).read_text(encoding="utf-8") == text

    def test_json_suffix_writes_the_canonical_document(self, tmp_path):
        text = write_document(tmp_path / "r.json", self.MARKDOWN, "R",
                              self.DOC)
        assert text == json_text(self.DOC) == \
            '{\n "a": "x",\n "b": [\n  1,\n  2\n ]\n}\n'
        assert (tmp_path / "r.json").read_text(encoding="utf-8") == text

    def test_json_suffix_without_a_document_writes_markdown(self, tmp_path):
        assert write_document(tmp_path / "r.json", self.MARKDOWN, "R") == \
            self.MARKDOWN
