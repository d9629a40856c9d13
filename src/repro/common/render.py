"""One renderer for every result table and report file.

* :func:`format_table` / :func:`format_series` — aligned text tables
  for stdout (the paper's tables and figure series).
* :func:`markdown_table` — the GitHub-flavoured Markdown table every
  report file is built from.
* :func:`markdown_to_html` — the one converter from the reports'
  Markdown to a self-contained HTML page, so a report's ``.md`` and
  ``.html`` forms carry the same words.
* :func:`json_text` — canonical indented JSON text.
* :func:`write_document` — writes a report, picking HTML, JSON or
  Markdown from the file suffix.
"""

from __future__ import annotations

import html as _html
import json
from typing import Any, Dict, Iterable, List, Optional, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Render rows as an aligned ASCII table."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([_fmt(value) for value in row])
    widths = [max(len(row[col]) for row in cells)
              for col in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(c.ljust(w) for c, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(series: Dict[str, Dict], x_label: str = "x",
                  title: str = "") -> str:
    """Render {name: {x: y}} curves as one table with x as first column."""
    xs: List = sorted({x for curve in series.values() for x in curve})
    headers = [x_label] + list(series)
    rows = []
    for x in xs:
        rows.append([x] + [series[name].get(x, "") for name in series])
    return format_table(headers, rows, title=title)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


# -- markdown -----------------------------------------------------------------

_RULES = {"l": "---", "r": "---:"}


def markdown_table(headers: Sequence[str], align: str,
                   rows: Iterable[Sequence]) -> str:
    """Render rows as a GitHub-flavoured Markdown table.

    ``align`` has one letter per column, ``l`` (left) or ``r`` (right).
    Each cell is written as ``str(cell)``, so the caller formats its
    numbers.
    """
    if len(align) != len(headers):
        raise ValueError(f"{len(headers)} headers but align {align!r}")
    lines = [_markdown_row(headers),
             "|" + "|".join(_RULES[letter] for letter in align) + "|"]
    lines += [_markdown_row(row) for row in rows]
    return "\n".join(lines)


def _markdown_row(cells: Sequence) -> str:
    return "| " + " | ".join(str(cell) for cell in cells) + " |"


# -- html ---------------------------------------------------------------------

_CSS = """
body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:62rem;
color:#1a1a1a}
table{border-collapse:collapse;margin:0.5rem 0 1.5rem}
th,td{border:1px solid #d0d0d0;padding:0.25rem 0.6rem;text-align:right}
th:first-child,td:first-child{text-align:left}
code{background:#f4f4f4;padding:0 0.2rem}
"""


def _inline_html(text: str) -> str:
    """Escape a markdown fragment, keeping `code` spans as ``<code>``."""
    parts = text.split("`")
    out: List[str] = []
    for index, part in enumerate(parts):
        escaped = _html.escape(part)
        out.append(f"<code>{escaped}</code>" if index % 2 else escaped)
    return "".join(out)


def markdown_to_html(markdown: str, title: str) -> str:
    """Convert the reports' Markdown to one self-contained HTML page.

    Handles the constructs the renderers emit: ``#``/``##``/``###``
    headings, tables, fenced code (as ``<pre>``), ``<details>`` lines,
    paragraphs, top-level ``* `` lines (one paragraph each) and
    indented ``* `` lines (nested lists, two spaces a level).  Text is
    escaped, with `code` spans as ``<code>``; the page references no
    external asset and is byte-stable for a fixed input.
    """
    body: List[str] = []
    code: Optional[List[str]] = None    # escaped lines of an open fence
    in_table = False
    depth = 0                           # open nested lists
    for line in markdown.splitlines():
        if code is not None:
            if line.startswith("```"):
                body.append("<pre>" + "\n".join(code) + "</pre>")
                code = None
            else:
                code.append(_html.escape(line))
            continue
        if in_table and not line.startswith("|"):
            body.append("</table>")
            in_table = False
        item = line.lstrip(" ")
        level = (len(line) - len(item)) // 2 if item.startswith("* ") else 0
        while depth > level:
            body.append("</ul>")
            depth -= 1
        if level:
            while depth < level:
                body.append("<ul>")
                depth += 1
            # "</li>" is optional in HTML: leaving it off nests a deeper
            # list inside the item above it
            body.append(f"<li>{_inline_html(item[2:])}")
        elif line.startswith("|"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if all(set(cell) <= {"-", ":", " "} and cell for cell in cells):
                continue
            tag = "td" if in_table else "th"
            if not in_table:
                body.append("<table>")
                in_table = True
            body.append("<tr>" + "".join(
                f"<{tag}>{_inline_html(cell)}</{tag}>"
                for cell in cells) + "</tr>")
        elif line.startswith("```"):
            code = []
        elif (line.startswith("<details><summary>")
              and line.endswith("</summary>")):
            label = line[len("<details><summary>"):-len("</summary>")]
            body.append(f"<details><summary>{_inline_html(label)}</summary>")
        elif line == "</details>":
            body.append(line)
        elif line.startswith(("# ", "## ", "### ")):
            marks, _space, text = line.partition(" ")
            body.append(f"<h{len(marks)}>{_inline_html(text)}"
                        f"</h{len(marks)}>")
        elif line.startswith("* "):
            body.append(f"<p>{_inline_html(line[2:])}</p>")
        elif line:
            body.append(f"<p>{_inline_html(line)}</p>")
    if code is not None:
        body.append("<pre>" + "\n".join(code) + "</pre>")
    if in_table:
        body.append("</table>")
    body += ["</ul>"] * depth
    return ("<!DOCTYPE html><html><head><meta charset='utf-8'>"
            f"<title>{_html.escape(title)}</title>"
            f"<style>{_CSS}</style></head><body>"
            + "\n".join(body) + "</body></html>\n")


# -- files --------------------------------------------------------------------

def json_text(doc: Any) -> str:
    """``doc`` as canonical JSON text: sorted keys, one-space indent and
    a final newline, so equal documents give equal bytes."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write_document(path, markdown: str, title: str, doc: Any = None) -> str:
    """Write one report; the file suffix picks the format.

    ``.html``/``.htm`` gets ``markdown`` converted to a page titled
    ``title``; ``.json`` gets :func:`json_text` of ``doc`` when the
    report has a document form; any other suffix gets ``markdown``
    itself.  Returns the text written.
    """
    name = str(path).lower()
    if name.endswith((".html", ".htm")):
        text = markdown_to_html(markdown, title)
    elif name.endswith(".json") and doc is not None:
        text = json_text(doc)
    else:
        text = markdown
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text
