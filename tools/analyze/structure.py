"""Structural model of one C++ source file for hyder-check.

Recovers, from the token stream, the pieces the rule modules need:

 * brace matching (``match`` / ``open_of``) and the enclosing-block chain of
   any token;
 * function definitions (name + body token range), including constructors
   with member-initialiser lists and trailing qualifiers / annotation
   macros;
 * class/struct definitions with their data-member declarations (name,
   type tokens, GUARDED_BY-style annotations, const/static/atomic-ness);
 * statement splitting inside a block (nested blocks are opaque units).

The recovery is heuristic but conservative: token patterns that do not
match a known shape are simply skipped, so an exotic construct can at worst
hide itself from a rule, never crash the analyzer.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from lexer import Comment, LexResult, Token, lex

_CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "constexpr", "static_assert", "noexcept", "alignas",
}

# Annotation-style macros whose parenthesised argument list is skipped when
# scanning declaration trailers (the thread-safety vocabulary of
# src/common/thread_annotations.h plus attributes).
_ANNOTATION_MACROS = {
    "GUARDED_BY", "PT_GUARDED_BY", "REQUIRES", "REQUIRES_SHARED", "EXCLUDES",
    "ACQUIRE", "ACQUIRE_SHARED", "RELEASE", "RELEASE_SHARED", "TRY_ACQUIRE",
    "ACQUIRED_BEFORE", "ACQUIRED_AFTER", "CAPABILITY", "SCOPED_CAPABILITY",
    "RETURN_CAPABILITY", "NO_THREAD_SAFETY_ANALYSIS", "ASSERT_CAPABILITY",
}

_MEMBER_SKIP_KEYWORDS = {
    "public", "private", "protected", "using", "typedef", "friend",
    "template", "static_assert", "enum", "class", "struct", "union",
    "operator", "explicit", "virtual", "inline", "constexpr",
}


@dataclasses.dataclass
class Function:
    name: str
    line: int
    body_start: int  # token index of '{'
    body_end: int    # token index of matching '}'


@dataclasses.dataclass
class Member:
    name: str
    line: int
    type_tokens: List[str]
    annotations: Set[str]
    is_const: bool
    is_static: bool
    is_atomic: bool
    is_reference: bool


@dataclasses.dataclass
class ClassInfo:
    name: str
    line: int
    body_start: int
    body_end: int
    members: List[Member]


@dataclasses.dataclass
class SourceFile:
    path: str           # as given to the driver
    rel_path: str       # repo-relative, posix separators (rule scoping key)
    text: str
    tokens: List[Token]
    comments: List[Comment]
    functions: List[Function]
    classes: List[ClassInfo]
    match: Dict[int, int]    # '(' '{' '[' token index -> closer index
    open_of: Dict[int, int]  # token index -> innermost enclosing '{' index

    def enclosing_function(self, tok_idx: int) -> Optional[Function]:
        best = None
        for f in self.functions:
            if f.body_start < tok_idx < f.body_end:
                if best is None or f.body_start > best.body_start:
                    best = f
        return best

    def comment_lines(self) -> Dict[int, List[Comment]]:
        out: Dict[int, List[Comment]] = {}
        for c in self.comments:
            for ln in range(c.line, c.end_line + 1):
                out.setdefault(ln, []).append(c)
        return out


def _match_pairs(tokens: List[Token]) -> Tuple[Dict[int, int], Dict[int, int]]:
    match: Dict[int, int] = {}
    open_of: Dict[int, int] = {}
    stack: List[int] = []           # all of ( { [
    brace_stack: List[int] = []     # only {
    closer = {"(": ")", "{": "}", "[": "]"}
    for i, t in enumerate(tokens):
        if brace_stack:
            open_of[i] = brace_stack[-1]
        if t.kind != "punct":
            continue
        if t.text in closer:
            stack.append(i)
            if t.text == "{":
                brace_stack.append(i)
        elif t.text in (")", "}", "]"):
            if t.text == "}" and brace_stack:
                brace_stack.pop()
            while stack:
                o = stack.pop()
                if closer[tokens[o].text] == t.text:
                    match[o] = i
                    break
    return match, open_of


def _callee_name_start(tokens: List[Token], paren_idx: int) -> Optional[int]:
    """For a '(' at paren_idx, walks back over `a::b` / `~a` name tokens.

    Returns the index of the first name token, or None if the token before
    '(' is not an identifier.
    """
    i = paren_idx - 1
    if i < 0 or tokens[i].kind != "id":
        return None
    while i - 1 >= 0:
        prev = tokens[i - 1]
        if prev.kind == "punct" and prev.text == "::" and i - 2 >= 0 and \
                tokens[i - 2].kind == "id":
            i -= 2
        elif prev.kind == "punct" and prev.text == "~":
            i -= 1
            break
        else:
            break
    return i


def _find_functions(tokens: List[Token], match: Dict[int, int]
                    ) -> List[Function]:
    """Finds function definitions: NAME ( ... ) [trailers] [: init-list] {"""
    funcs: List[Function] = []
    n = len(tokens)
    i = 0
    while i < n:
        t = tokens[i]
        if not (t.kind == "punct" and t.text == "(" and i in match):
            i += 1
            continue
        name_start = _callee_name_start(tokens, i)
        if name_start is None:
            i += 1
            continue
        name_tok = tokens[i - 1]
        if name_tok.text in _CONTROL_KEYWORDS:
            i += 1
            continue
        j = match[i] + 1  # token after ')'
        body = _scan_trailers(tokens, match, j)
        if body is not None:
            name = "".join(tok.text for tok in tokens[name_start:i])
            funcs.append(Function(name, name_tok.line, body, match[body]))
            # Continue scanning *inside* the body too (lambdas, local
            # classes): do not skip past it.
        i += 1
    return funcs


def _scan_trailers(tokens: List[Token], match: Dict[int, int],
                   j: int) -> Optional[int]:
    """After a parameter list's ')', returns the body '{' index or None."""
    n = len(tokens)
    allowed_ids = {"const", "noexcept", "override", "final", "mutable",
                   "volatile", "try"}
    while j < n:
        t = tokens[j]
        if t.kind == "punct" and t.text == "{":
            return j if j in match else None
        if t.kind == "punct" and t.text in (";", ",", ")", "=", "}"):
            return None  # declaration / expression, not a definition
        if t.kind == "id":
            if t.text in allowed_ids:
                j += 1
                continue
            if t.text in _ANNOTATION_MACROS or t.text.isupper():
                # Macro trailer, possibly with arguments.
                if j + 1 < n and tokens[j + 1].text == "(" and \
                        (j + 1) in match:
                    j = match[j + 1] + 1
                else:
                    j += 1
                continue
            return None
        if t.kind == "punct" and t.text == "->":
            # Trailing return type: skip tokens up to '{' or ';'.
            j += 1
            while j < n and not (tokens[j].kind == "punct" and
                                 tokens[j].text in ("{", ";", "}")):
                if tokens[j].text in ("(", "[", "<") and j in match:
                    j = match.get(j, j) + 1
                else:
                    j += 1
            continue
        if t.kind == "punct" and t.text == ":":
            # Constructor initialiser list: IDENT ( ... ) or IDENT { ... }
            # groups separated by commas; the first token after a group
            # that is '{' is the body.
            j += 1
            while j < n:
                if tokens[j].kind != "id":
                    return None
                j += 1
                # Optional template args on the initialised base class.
                if j < n and tokens[j].text == "<":
                    depth = 1
                    j += 1
                    while j < n and depth > 0:
                        if tokens[j].text == "<":
                            depth += 1
                        elif tokens[j].text == ">":
                            depth -= 1
                        elif tokens[j].text == ">>":
                            depth -= 2
                        j += 1
                if j >= n or tokens[j].text not in ("(", "{"):
                    return None
                if j not in match:
                    return None
                j = match[j] + 1
                if j < n and tokens[j].text == ",":
                    j += 1
                    continue
                if j < n and tokens[j].text == "{":
                    return j if j in match else None
                return None
            return None
        if t.kind == "punct" and t.text == "[":
            # [[attribute]]
            j = match.get(j, j) + 1
            continue
        return None
    return None


def _find_classes(tokens: List[Token], match: Dict[int, int],
                  functions: List[Function]) -> List[ClassInfo]:
    classes: List[ClassInfo] = []
    fn_bodies = [(f.body_start, f.body_end) for f in functions]
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.kind != "id" or t.text not in ("class", "struct"):
            continue
        # Skip `enum class` and elaborated uses like `class Foo* p;`.
        if i > 0 and tokens[i - 1].kind == "id" and \
                tokens[i - 1].text == "enum":
            continue
        j = i + 1
        # Optional attribute / export macro before the name.
        while j < n and tokens[j].kind == "id" and tokens[j].text.isupper():
            j += 1
        if j >= n or tokens[j].kind != "id":
            continue
        name = tokens[j].text
        line = tokens[j].line
        j += 1
        if j < n and tokens[j].text == "final":
            j += 1
        # Base clause.
        if j < n and tokens[j].text == ":":
            while j < n and tokens[j].text != "{":
                if tokens[j].text == "<":
                    depth = 1
                    j += 1
                    while j < n and depth > 0:
                        if tokens[j].text == "<":
                            depth += 1
                        elif tokens[j].text == ">":
                            depth -= 1
                        elif tokens[j].text == ">>":
                            depth -= 2
                        j += 1
                    continue
                if tokens[j].text == ";":
                    break
                j += 1
        if j >= n or tokens[j].text != "{" or j not in match:
            continue
        body_start, body_end = j, match[j]
        members = _parse_members(tokens, match, body_start, body_end,
                                 fn_bodies)
        classes.append(ClassInfo(name, line, body_start, body_end, members))
    return classes


def _parse_members(tokens: List[Token], match: Dict[int, int],
                   body_start: int, body_end: int,
                   fn_bodies: List[Tuple[int, int]]) -> List[Member]:
    members: List[Member] = []
    i = body_start + 1
    while i < body_end:
        t = tokens[i]
        if t.kind == "punct" and t.text in ("{", "(", "["):
            i = match.get(i, i) + 1
            continue
        if t.kind == "punct" and t.text == ";":
            i += 1
            continue
        # Access specifier `public:` etc.
        if t.kind == "id" and t.text in ("public", "private", "protected") \
                and i + 1 < body_end and tokens[i + 1].text == ":":
            i += 2
            continue
        # Collect one declaration run up to ';' at this depth; nested
        # brace/paren groups are skipped as units. A '{' whose run already
        # contains '(' is a method body: skip it and end the run.
        run: List[int] = []
        has_paren_at_top = False
        ended_at_semi = False
        j = i
        while j < body_end:
            tj = tokens[j]
            if tj.kind == "punct" and tj.text == ";":
                ended_at_semi = True
                break
            if tj.kind == "punct" and tj.text == "(":
                prev_id = tokens[j - 1].text if j > 0 else ""
                if prev_id not in _ANNOTATION_MACROS:
                    has_paren_at_top = True
                run.append(j)
                j = match.get(j, j) + 1
                continue
            if tj.kind == "punct" and tj.text == "{":
                if has_paren_at_top:
                    # Method definition: skip its body and end the run;
                    # the next declaration starts right after the '}'.
                    j = match.get(j, j) + 1
                    run = []
                    break
                run.append(j)
                j = match.get(j, j) + 1
                continue
            run.append(j)
            j += 1
        if run and ended_at_semi:
            member = _member_from_run(tokens, match, run)
            if member is not None:
                members.append(member)
        i = j + 1 if ended_at_semi else j
    return members


def _member_from_run(tokens: List[Token], match: Dict[int, int],
                     run: List[int]) -> Optional[Member]:
    if not run:
        return None
    first = tokens[run[0]]
    if first.kind == "id" and first.text in _MEMBER_SKIP_KEYWORDS and \
            first.text != "static":
        return None
    annotations: Set[str] = set()
    is_static = False
    kept: List[int] = []
    k = 0
    while k < len(run):
        idx = run[k]
        t = tokens[idx]
        if t.kind == "id" and t.text in _ANNOTATION_MACROS:
            annotations.add(t.text)
            # Skip its argument group if present.
            if k + 1 < len(run) and tokens[run[k + 1]].text == "(":
                k += 2
            else:
                k += 1
            continue
        if t.kind == "id" and t.text == "static":
            is_static = True
            k += 1
            continue
        kept.append(idx)
        k += 1
    if not kept:
        return None
    # Strip a trailing `= init` or `{init}` and bitfield `: width`.
    for stop_text in ("=", ":"):
        for pos, idx in enumerate(kept):
            t = tokens[idx]
            if t.kind == "punct" and t.text == stop_text:
                kept = kept[:pos]
                break
    if kept and tokens[kept[-1]].text == "}":
        # Brace initialiser survived as matched group markers; strip back
        # to its '{'.
        while kept and tokens[kept[-1]].text != "{":
            kept.pop()
        if kept:
            kept.pop()
    if len(kept) < 2:
        return None
    name_tok = tokens[kept[-1]]
    if name_tok.kind != "id":
        return None
    type_idx = kept[:-1]
    type_texts = [tokens[idx].text for idx in type_idx]
    if any(t in ("(", ")") for t in type_texts):
        return None  # function declaration
    if not any(tokens[idx].kind == "id" for idx in type_idx):
        return None
    # const-ness of the member binding: `T* const x` is const, `const T* x`
    # is a mutable pointer to const.
    is_const = False
    if "const" in type_texts:
        if "*" in type_texts:
            is_const = type_texts.index("const") > _rindex(type_texts, "*")
        else:
            is_const = True
    is_reference = type_texts[-1] == "&" or "&" in type_texts
    head = type_texts[:4]
    is_atomic = "atomic" in head
    return Member(name_tok.text, name_tok.line, type_texts, annotations,
                  is_const, is_static, is_atomic, is_reference)


def _rindex(lst: List[str], item: str) -> int:
    return len(lst) - 1 - lst[::-1].index(item)


def build_source_file(path: str, rel_path: str, text: str) -> SourceFile:
    lx = lex(text)
    match, open_of = _match_pairs(lx.tokens)
    functions = _find_functions(lx.tokens, match)
    classes = _find_classes(lx.tokens, match, functions)
    return SourceFile(path, rel_path, text, lx.tokens, lx.comments,
                      functions, classes, match, open_of)


def call_sites(sf: SourceFile, method_names: Set[str]):
    """Yields (tok_idx, name) for member-call sites `x.name(` / `x->name(`.

    Only matches when the name is preceded by `.` or `->` — plain
    declarations and free functions with the same spelling do not match.
    """
    toks = sf.tokens
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in method_names:
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        if i == 0:
            continue
        prev = toks[i - 1]
        if prev.kind == "punct" and prev.text in (".", "->"):
            yield i, t.text


def chain_start(sf: SourceFile, name_idx: int) -> int:
    """Walks back from a member name over the `a.b->c` chain it hangs off.

    Returns the index of the first token of the object expression. Stops at
    statement boundaries, operators and '(' — i.e. `foo(x).bar` stops at
    `foo`'s '(' group only if the chain passes through it as a call result
    (handled by skipping matched groups).
    """
    i = name_idx
    toks = sf.tokens
    while i - 1 >= 0:
        prev = toks[i - 1]
        if prev.kind == "punct" and prev.text in (".", "->"):
            i -= 1
            prev2 = toks[i - 1] if i - 1 >= 0 else None
            if prev2 is None:
                break
            if prev2.kind == "id":
                i -= 1
                continue
            if prev2.kind == "punct" and prev2.text in (")", "]"):
                # Call/index result: skip back over the matched group and
                # its callee name.
                opener = None
                for o, c in sf.match.items():
                    if c == i - 1:
                        opener = o
                        break
                if opener is None:
                    break
                i = opener
                if i - 1 >= 0 and toks[i - 1].kind == "id":
                    i -= 1
                continue
            break
        else:
            break
    return i
