"""Language stemmers — pure Python, one per reference-supported language.

German, French, Spanish, Russian, Swedish, Norwegian, Danish, Italian,
Portuguese, Dutch, Romanian, Finnish, Hungarian and Turkish are
implemented from the published Snowball algorithm descriptions
(snowballstem.org/algorithms/<language>/stemmer.html) — the same
algorithms the reference uses through rust-stemmers
(/root/reference/src/tokenizer/stemmer.rs:63-120).  Greek is the full
published Ntais algorithm (the basis of Snowball Greek) — the 7-step
structure with its per-rule re-attachment exception tables; Arabic
is the published Light10 stemmer (Larkey, Ballesteros & Connell 2002);
Tamil is a published-rules light suffix stripper.  With English
(Porter2, stemmer.py) all 18 of the reference's languages are routed.

All stemmers expect lowercased input (the chain puts LowerCaser first)
and are memoized — web text repeats terms heavily.
"""

from __future__ import annotations

from functools import lru_cache

# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _standard_r1_r2(word: str, vowels: frozenset) -> tuple[int, int]:
    """R1 = region after the first non-vowel following a vowel; R2 = same
    rule applied within R1 (the standard Snowball definition)."""
    n = len(word)
    r1 = n
    for i in range(n - 1):
        if word[i] in vowels and word[i + 1] not in vowels:
            r1 = i + 2
            break
    r2 = n
    for i in range(r1, n - 1):
        if word[i] in vowels and word[i + 1] not in vowels:
            r2 = i + 2
            break
    return r1, r2


# ---------------------------------------------------------------------------
# German
# ---------------------------------------------------------------------------

_DE_VOWELS = frozenset("aeiouyäöü")
_DE_S_END = frozenset("bdfghklmnrt")
_DE_ST_END = frozenset("bdfghklmnt")


@lru_cache(maxsize=65536)
def german_stem(word: str) -> str:
    word = word.replace("ß", "ss")
    # mark u/y between vowels as consonants
    chars = list(word)
    for i in range(1, len(chars) - 1):
        if chars[i] in "uy" and chars[i - 1] in _DE_VOWELS \
                and chars[i + 1] in _DE_VOWELS:
            chars[i] = chars[i].upper()
    w = "".join(chars)
    r1, r2 = _standard_r1_r2(w.lower(), _DE_VOWELS)
    r1 = max(r1, 3) if len(w) >= 3 else r1  # R1 starts no earlier than 3

    def in_r1(pos: int) -> bool:
        return pos >= r1

    def in_r2(pos: int) -> bool:
        return pos >= r2

    # step 1
    lw = w.lower()
    for suf in ("ern", "em", "er"):
        if lw.endswith(suf) and in_r1(len(w) - len(suf)):
            w = w[:-len(suf)]
            break
    else:
        for suf in ("en", "es", "e"):
            if lw.endswith(suf) and in_r1(len(w) - len(suf)):
                w = w[:-len(suf)]
                if w.lower().endswith("niss"):
                    w = w[:-1]
                break
        else:
            if lw.endswith("s") and in_r1(len(w) - 1) and len(w) >= 2 \
                    and lw[-2] in _DE_S_END:
                w = w[:-1]

    # step 2
    lw = w.lower()
    for suf in ("est", "en", "er"):
        if lw.endswith(suf) and in_r1(len(w) - len(suf)):
            w = w[:-len(suf)]
            break
    else:
        if lw.endswith("st") and in_r1(len(w) - 2) and len(w) >= 6 \
                and lw[-3] in _DE_ST_END:
            w = w[:-2]

    # step 3 (d-suffixes)
    lw = w.lower()
    if lw.endswith(("end", "ung")):
        if in_r2(len(w) - 3):
            w = w[:-3]
            lw = w.lower()
            if lw.endswith("ig") and in_r2(len(w) - 2) and \
                    not lw.endswith("eig"):
                w = w[:-2]
    elif lw.endswith(("isch",)):
        if in_r2(len(w) - 4) and not lw.endswith("eisch"):
            w = w[:-4]
    elif lw.endswith(("ig", "ik")):
        if in_r2(len(w) - 2) and not lw[-3:-2] == "e":
            w = w[:-2]
    elif lw.endswith(("lich", "heit")):
        if in_r2(len(w) - 4):
            w = w[:-4]
            lw = w.lower()
            for pre in ("er", "en"):
                if lw.endswith(pre) and in_r1(len(w) - 2):
                    w = w[:-2]
                    break
    elif lw.endswith("keit"):
        if in_r2(len(w) - 4):
            w = w[:-4]
            lw = w.lower()
            if lw.endswith("lich") and in_r2(len(w) - 4):
                w = w[:-4]
            elif lw.endswith("ig") and in_r2(len(w) - 2):
                w = w[:-2]

    w = w.lower()
    return (w.replace("ä", "a").replace("ö", "o").replace("ü", "u"))


# ---------------------------------------------------------------------------
# Russian
# ---------------------------------------------------------------------------

_RU_VOWELS = frozenset("аеиоуыэюя")

_RU_PGERUND_1 = ("вшись", "вши", "в")
_RU_PGERUND_2 = ("ившись", "ывшись", "ивши", "ывши", "ив", "ыв")
_RU_ADJECTIVE = ("ими", "ыми", "его", "ого", "ему", "ому", "ее", "ие",
                 "ые", "ое", "ей", "ий", "ый", "ой", "ем", "им", "ым",
                 "ом", "их", "ых", "ую", "юю", "ая", "яя", "ою", "ею")
_RU_PART_1 = ("ем", "нн", "вш", "ющ", "щ")
_RU_PART_2 = ("ивш", "ывш", "ующ")
_RU_VERB_1 = ("ешь", "нно", "ете", "йте", "ла", "на", "ли", "ем", "ло",
              "но", "ет", "ют", "ны", "ть", "й", "л", "н")
_RU_VERB_2 = ("ейте", "уйте", "ила", "ыла", "ена", "ите", "или", "ыли",
              "ило", "ыло", "ено", "ует", "уют", "ены", "ить", "ыть",
              "ишь", "ей", "уй", "ил", "ыл", "им", "ым", "ен", "ят",
              "ит", "ыт", "ую", "ю")
_RU_NOUN = ("иями", "ями", "ами", "ией", "иям", "ием", "иях", "ия",
            "ев",
            "ов", "ие", "ье", "еи", "ии", "ей", "ой", "ий", "ям", "ем",
            "ам", "ом", "ах", "ях", "ию", "ью", "ья", "а", "е", "и",
            "й", "о", "у", "ы", "ь", "ю", "я")


def _ru_longest(word: str, sufs, rv: int, py_group: bool = False):
    """Longest suffix of `word` from sufs fully inside RV; for group-1
    endings the match must be preceded by а/я (which stays)."""
    best = None
    for s in sufs:
        if word.endswith(s) and len(word) - len(s) >= rv:
            if py_group:
                i = len(word) - len(s) - 1
                if i < 0 or word[i] not in "ая" or i < rv - 1:
                    # preceding а/я must exist (it may sit just before RV?
                    # spec: the а/я is part of the RV match)
                    if i < 0 or word[i] not in "ая" or i < rv:
                        continue
            if best is None or len(s) > len(best):
                best = s
    return best


@lru_cache(maxsize=65536)
def russian_stem(word: str) -> str:
    w = word.replace("ё", "е")
    n = len(w)
    rv = n
    for i, c in enumerate(w):
        if c in _RU_VOWELS:
            rv = i + 1
            break

    def drop(s: str):
        nonlocal w
        w = w[:-len(s)]

    # step 1: perfective gerund, else [reflexive] adjectival | verb | noun
    g2 = _ru_longest(w, _RU_PGERUND_2, rv)
    g1 = _ru_longest(w, _RU_PGERUND_1, rv, py_group=True)
    if g2 or g1:
        drop(g2 if (g2 and (not g1 or len(g2) >= len(g1))) else g1)
    else:
        refl = _ru_longest(w, ("ся", "сь"), rv)
        if refl:
            drop(refl)
        adj = _ru_longest(w, _RU_ADJECTIVE, rv)
        if adj:
            drop(adj)
            p2 = _ru_longest(w, _RU_PART_2, rv)
            p1 = _ru_longest(w, _RU_PART_1, rv, py_group=True)
            if p2 or p1:
                drop(p2 if (p2 and (not p1 or len(p2) >= len(p1))) else p1)
        else:
            v2 = _ru_longest(w, _RU_VERB_2, rv)
            v1 = _ru_longest(w, _RU_VERB_1, rv, py_group=True)
            if v2 or v1:
                drop(v2 if (v2 and (not v1 or len(v2) >= len(v1))) else v1)
            else:
                nn = _ru_longest(w, _RU_NOUN, rv)
                if nn:
                    drop(nn)

    # step 2: final и
    if w.endswith("и") and len(w) - 1 >= rv:
        w = w[:-1]

    # step 3: derivational ость/ост in R2
    r1, r2 = _standard_r1_r2(w, _RU_VOWELS)
    for s in ("ость", "ост"):
        if w.endswith(s) and len(w) - len(s) >= r2:
            w = w[:-len(s)]
            break

    # step 4
    if w.endswith("нн") and len(w) - 1 >= rv:
        w = w[:-1]
    else:
        sup = _ru_longest(w, ("ейше", "ейш"), rv)
        if sup:
            w = w[:-len(sup)]
            if w.endswith("нн") and len(w) - 1 >= rv:
                w = w[:-1]
        elif w.endswith("ь") and len(w) - 1 >= rv:
            w = w[:-1]
    return w


# ---------------------------------------------------------------------------
# Spanish
# ---------------------------------------------------------------------------

_ES_VOWELS = frozenset("aeiouáéíóúü")

_ES_PRON = ("selas", "selos", "sela", "selo", "las", "les", "los", "nos",
            "me", "se", "la", "le", "lo")
_ES_PRON_PRE_A = ("iéndo", "ándo", "ár", "ér", "ír")
_ES_PRON_PRE_B = ("iendo", "ando", "ar", "er", "ir")

_ES_STEP1_DELETE_R2 = (
    "amientos", "imientos", "amiento", "imiento", "anzas", "ismos",
    "ables", "ibles", "istas", "anza", "icos", "icas", "ismo", "able",
    "ible", "ista", "osos", "osas", "ico", "ica", "oso", "osa")
_ES_STEP1_ADOR = ("adoras", "adores", "aciones", "adora", "ación",
                  "ador", "antes", "ancias", "ante", "ancia")
_ES_STEP2B = (
    "aríamos", "eríamos", "iríamos", "iéramos", "iésemos", "aríais",
    "aremos", "eríais", "eremos", "iríais", "iremos", "ierais",
    "ieseis", "asteis", "isteis", "ábamos", "áramos", "ásemos",
    "arían", "arías", "aréis", "erían", "erías", "eréis", "irían",
    "irías", "iréis", "ieran", "iesen", "ieron", "iendo", "ieras",
    "ieses", "abais", "arais", "aseis", "íamos", "arán", "arás",
    "aría", "erán", "erás", "ería", "irán", "irás", "iría", "iera",
    "iese", "aste", "iste", "aban", "aran", "asen", "aron", "ando",
    "abas", "adas", "idas", "aras", "ases", "íais", "ados", "idos",
    "amos", "imos", "ará", "aré", "erá", "eré", "irá", "iré", "aba",
    "ada", "ida", "ara", "ase", "ían", "ado", "ido", "ías", "áis",
    "éis", "ía", "ad", "ed", "id", "an", "ió", "ar", "er", "ir", "as",
    "ís", "en", "es")
_ES_STEP2A = ("yeron", "yendo", "yamos", "yais", "yan", "yen", "yas",
              "yes", "ya", "ye", "yo", "yó")


def _es_rv(word: str) -> int:
    n = len(word)
    if n < 3:
        return n
    if word[1] not in _ES_VOWELS:
        # region after the next following vowel
        for i in range(2, n):
            if word[i] in _ES_VOWELS:
                return i + 1
        return n
    if word[0] in _ES_VOWELS and word[1] in _ES_VOWELS:
        # region after the next consonant
        for i in range(2, n):
            if word[i] not in _ES_VOWELS:
                return i + 1
        return n
    return 3  # consonant-vowel start: after the third letter


_ES_UNACCENT = str.maketrans("áéíóú", "aeiou")


@lru_cache(maxsize=65536)
def spanish_stem(word: str) -> str:
    w = word
    rv = _es_rv(w)
    r1, r2 = _standard_r1_r2(w, _ES_VOWELS)

    def in_rv(pos): return pos >= rv
    def in_r1(pos): return pos >= r1
    def in_r2(pos): return pos >= r2

    # step 0: attached pronoun
    for p in _ES_PRON:
        if not w.endswith(p):
            continue
        base = w[:-len(p)]
        done = False
        for pre in _ES_PRON_PRE_A:
            if base.endswith(pre) and in_rv(len(base) - len(pre)):
                w = base[:-len(pre)] + pre.translate(_ES_UNACCENT)
                done = True
                break
        if not done:
            for pre in _ES_PRON_PRE_B:
                if base.endswith(pre) and in_rv(len(base) - len(pre)):
                    w = base
                    done = True
                    break
        if not done and base.endswith("yendo") and \
                in_rv(len(base) - 5) and base[:-5].endswith("u"):
            w = base
            done = True
        if done:
            rv = _es_rv(w)
            r1, r2 = _standard_r1_r2(w, _ES_VOWELS)
        break

    # step 1: standard suffixes (longest match governs)
    step1_done = False

    def try1() -> bool:
        nonlocal w
        cands = []
        for s in _ES_STEP1_DELETE_R2:
            if w.endswith(s) and in_r2(len(w) - len(s)):
                cands.append((len(s), s, "del"))
        for s in _ES_STEP1_ADOR:
            if w.endswith(s) and in_r2(len(w) - len(s)):
                cands.append((len(s), s, "ador"))
        for s in ("logías", "logía"):
            if w.endswith(s) and in_r2(len(w) - len(s)):
                cands.append((len(s), s, "log"))
        for s in ("uciones", "ución"):
            if w.endswith(s) and in_r2(len(w) - len(s)):
                cands.append((len(s), s, "u"))
        for s in ("encias", "encia"):
            if w.endswith(s) and in_r2(len(w) - len(s)):
                cands.append((len(s), s, "ente"))
        if w.endswith("amente") and in_r1(len(w) - 6):
            cands.append((6, "amente", "amente"))
        elif w.endswith("mente") and in_r2(len(w) - 5):
            cands.append((5, "mente", "mente"))
        for s in ("idades", "idad"):
            if w.endswith(s) and in_r2(len(w) - len(s)):
                cands.append((len(s), s, "idad"))
        for s in ("ivas", "ivos", "iva", "ivo"):
            if w.endswith(s) and in_r2(len(w) - len(s)):
                cands.append((len(s), s, "iv"))
        if not cands:
            return False
        _, s, mode = max(cands, key=lambda c: c[0])
        w = w[:-len(s)]
        if mode == "ador":
            if w.endswith("ic") and in_r2(len(w) - 2):
                w = w[:-2]
        elif mode == "log":
            w += "log"
        elif mode == "u":
            w += "u"
        elif mode == "ente":
            w += "ente"
        elif mode == "amente":
            if w.endswith("iv") and in_r2(len(w) - 2):
                w = w[:-2]
                if w.endswith("at") and in_r2(len(w) - 2):
                    w = w[:-2]
            else:
                for pre in ("os", "ic", "ad"):
                    if w.endswith(pre) and in_r2(len(w) - 2):
                        w = w[:-2]
                        break
        elif mode == "mente":
            for pre in ("ante", "able", "ible"):
                if w.endswith(pre) and in_r2(len(w) - 4):
                    w = w[:-4]
                    break
        elif mode == "idad":
            for pre in ("abil", "ic", "iv"):
                if w.endswith(pre) and in_r2(len(w) - len(pre)):
                    w = w[:-len(pre)]
                    break
        elif mode == "iv":
            if w.endswith("at") and in_r2(len(w) - 2):
                w = w[:-2]
        return True

    step1_done = try1()

    if not step1_done:
        # step 2a: verb suffixes beginning y (preceded by u)
        done2a = False
        for s in sorted(_ES_STEP2A, key=len, reverse=True):
            if w.endswith(s) and in_rv(len(w) - len(s)) and \
                    w[:-len(s)].endswith("u"):
                w = w[:-len(s)]
                done2a = True
                break
        if not done2a:
            # step 2b
            for s in _ES_STEP2B:
                if w.endswith(s) and in_rv(len(w) - len(s)):
                    w = w[:-len(s)]
                    if s in ("en", "es", "éis", "emos") and \
                            w.endswith("gu"):
                        w = w[:-1]
                    break

    # step 3: residual
    for s in ("os", "a", "o", "á", "í", "ó"):
        if w.endswith(s) and in_rv(len(w) - len(s)):
            w = w[:-len(s)]
            break
    else:
        for s in ("e", "é"):
            if w.endswith(s) and in_rv(len(w) - 1):
                w = w[:-1]
                if w.endswith("gu") and in_rv(len(w) - 1):
                    w = w[:-1]
                break

    return w.translate(_ES_UNACCENT)


# ---------------------------------------------------------------------------
# French
# ---------------------------------------------------------------------------

_FR_VOWELS = frozenset("aeiouyâàëéêèïîôûù")

_FR_STEP1_R2_DEL = ("ances", "iqUes", "ismes", "ables", "istes", "ance",
                    "iqUe", "isme", "able", "iste", "eux")
_FR_ATEUR = ("atrices", "atrice", "ateurs", "ations", "ateur", "ation")
_FR_STEP2A = ("issaIent", "issantes", "iraIent", "issante", "issants",
              "issions", "irions", "issais", "issait", "issant",
              "issent", "issiez", "issons", "irais", "irait", "irent",
              "iriez", "irons", "iront", "isses", "issez", "îmes",
              "îtes", "irai", "iras", "irez", "isse", "ies", "ira",
              "ît", "ie", "ir", "is", "it", "i")
_FR_STEP2B_ER = ("eraIent", "erions", "èrent", "erais", "erait",
                 "eriez", "erons", "eront", "erai", "eras", "erez",
                 "ées", "era", "iez", "ée", "és", "er", "ez", "é")
_FR_STEP2B_A = ("assions", "assent", "assiez", "aIent", "antes",
                "asses", "âmes", "âtes", "ante", "ants", "asse",
                "ais", "ait", "ant", "ât", "ai", "as", "a")


def _fr_mark(word: str) -> str:
    chars = list(word)
    n = len(chars)

    def is_v(c): return c in _FR_VOWELS
    for i in range(n):
        c = chars[i]
        if c in "ui" and 0 < i < n - 1 and is_v(word[i - 1]) \
                and is_v(word[i + 1]):
            chars[i] = c.upper()
        elif c == "y" and ((i > 0 and is_v(word[i - 1]))
                           or (i < n - 1 and is_v(word[i + 1]))):
            chars[i] = "Y"
        elif c == "u" and i > 0 and word[i - 1] == "q":
            chars[i] = "U"
    return "".join(chars)


def _fr_rv(w: str) -> int:
    n = len(w)
    lw = w.lower()
    if n >= 3 and (lw.startswith("par") or lw.startswith("col")
                   or lw.startswith("tap")):
        return 3
    if n >= 2 and lw[0] in _FR_VOWELS and lw[1] in _FR_VOWELS:
        return min(3, n)
    for i in range(1, n):
        if lw[i] in _FR_VOWELS:
            return i + 1
    return n


@lru_cache(maxsize=65536)
def french_stem(word: str) -> str:
    w = _fr_mark(word)
    rv = _fr_rv(w)
    r1, r2 = _standard_r1_r2(w.lower(), _FR_VOWELS)

    def in_rv(pos): return pos >= rv
    def in_r1(pos): return pos >= r1
    def in_r2(pos): return pos >= r2

    changed1 = False
    ment_found = False

    def step1() -> bool:
        nonlocal w, ment_found
        lw = w.lower()
        cands = []
        for s in _FR_STEP1_R2_DEL:
            if lw.endswith(s.lower()) and in_r2(len(w) - len(s)):
                cands.append((len(s), s, "del_r2"))
        for s in _FR_ATEUR:
            if lw.endswith(s) and in_r2(len(w) - len(s)):
                cands.append((len(s), s, "ateur"))
        for s in ("logies", "logie"):
            if lw.endswith(s) and in_r2(len(w) - len(s)):
                cands.append((len(s), s, "log"))
        for s in ("usions", "utions", "usion", "ution"):
            if lw.endswith(s) and in_r2(len(w) - len(s)):
                cands.append((len(s), s, "u"))
        for s in ("ences", "ence"):
            if lw.endswith(s) and in_r2(len(w) - len(s)):
                cands.append((len(s), s, "ent"))
        for s in ("ements", "ement"):
            if lw.endswith(s) and in_rv(len(w) - len(s)):
                cands.append((len(s), s, "ement"))
        for s in ("ités", "ité"):
            if lw.endswith(s) and in_r2(len(w) - len(s)):
                cands.append((len(s), s, "ite"))
        for s in ("ives", "ifs", "ive", "if"):
            if lw.endswith(s) and in_r2(len(w) - len(s)):
                cands.append((len(s), s, "if"))
        if lw.endswith("eaux"):
            cands.append((4, "eaux", "eaux"))
        elif lw.endswith("aux") and in_r1(len(w) - 3):
            cands.append((3, "aux", "aux"))
        for s in ("euses", "euse"):
            if lw.endswith(s):
                if in_r2(len(w) - len(s)):
                    cands.append((len(s), s, "del_r2"))
                elif in_r1(len(w) - len(s)):
                    cands.append((len(s), s, "eux"))
        for s in ("issements", "issement"):
            if lw.endswith(s) and in_r1(len(w) - len(s)) and \
                    len(w) > len(s) and \
                    lw[len(w) - len(s) - 1] not in _FR_VOWELS:
                cands.append((len(s), s, "del"))
        if lw.endswith("amment") and in_rv(len(w) - 6):
            cands.append((6, "amment", "ant"))
        if lw.endswith("emment") and in_rv(len(w) - 6):
            cands.append((6, "emment", "ent"))
        for s in ("ments", "ment"):
            i = len(w) - len(s)
            if lw.endswith(s) and i >= 1 and lw[i - 1] in _FR_VOWELS \
                    and in_rv(i - 1):
                cands.append((len(s), s, "ment"))
        if not cands:
            return False
        _, s, mode = max(cands, key=lambda c: c[0])
        if mode in ("ment",):
            ment_found = True
        if mode in ("amment",):
            pass
        base = w[:-len(s)]
        lw = base.lower()
        if mode in ("del_r2", "del", "ment"):
            w = base
        elif mode == "ateur":
            w = base
            if w.lower().endswith("ic"):
                if in_r2(len(w) - 2):
                    w = w[:-2]
                else:
                    w = w[:-2] + "iqU"
        elif mode == "log":
            w = base + "log"
        elif mode == "u":
            w = base + "u"
        elif mode == "ent":
            w = base + "ent"
        elif mode == "ement":
            w = base
            lw = w.lower()
            if lw.endswith("iv") and in_r2(len(w) - 2):
                w = w[:-2]
                if w.lower().endswith("at") and in_r2(len(w) - 2):
                    w = w[:-2]
            elif lw.endswith("eus"):
                if in_r2(len(w) - 3):
                    w = w[:-3]
                elif in_r1(len(w) - 3):
                    w = w[:-3] + "eux"
            elif lw.endswith("abl") and in_r2(len(w) - 3):
                w = w[:-3]
            elif lw.endswith("iqu") and in_r2(len(w) - 3):
                w = w[:-3]
            elif lw.endswith("ièr") and in_rv(len(w) - 3):
                w = w[:-3] + "i"
            elif lw.endswith("ier") and w.endswith("Ièr") and \
                    in_rv(len(w) - 3):
                w = w[:-3] + "i"
        elif mode == "ite":
            w = base
            lw = w.lower()
            if lw.endswith("abil"):
                if in_r2(len(w) - 4):
                    w = w[:-4]
                else:
                    w = w[:-4] + "abl"
            elif lw.endswith("ic"):
                if in_r2(len(w) - 2):
                    w = w[:-2]
                else:
                    w = w[:-2] + "iqU"
            elif lw.endswith("iv") and in_r2(len(w) - 2):
                w = w[:-2]
        elif mode == "if":
            w = base
            if w.lower().endswith("at") and in_r2(len(w) - 2):
                w = w[:-2]
                if w.lower().endswith("ic"):
                    if in_r2(len(w) - 2):
                        w = w[:-2]
                    else:
                        w = w[:-2] + "iqU"
        elif mode == "eaux":
            w = base + "eau"
        elif mode == "aux":
            w = base + "al"
        elif mode == "eux":
            w = base + "eux"
        elif mode == "ant":
            w = base + "ant"
        return True

    before1 = w
    did1 = step1()
    changed1 = (w != before1)

    did2 = False
    if (not did1) or ment_found:
        # step 2a: i-verb suffixes, preceded by a non-vowel in RV
        before = w
        lw = w.lower()
        for s in _FR_STEP2A:
            sl = s.lower()
            i = len(w) - len(s)
            if lw.endswith(sl) and in_rv(i) and i >= 1 \
                    and lw[i - 1] not in _FR_VOWELS and in_rv(i - 1):
                w = w[:-len(s)]
                break
        did2a_removed = (w != before)
        if not did2a_removed:
            # step 2b: LONGEST match across all suffix groups
            lw = w.lower()
            cands = []
            if lw.endswith("ions") and in_r2(len(w) - 4) \
                    and in_rv(len(w) - 4):
                cands.append((4, "ions", "er"))
            for s in _FR_STEP2B_ER:
                if lw.endswith(s.lower()) and in_rv(len(w) - len(s)):
                    cands.append((len(s), s, "er"))
            for s in _FR_STEP2B_A:
                if lw.endswith(s.lower()) and in_rv(len(w) - len(s)):
                    cands.append((len(s), s, "a"))
            if cands:
                _, s, mode = max(cands, key=lambda c: c[0])
                w = w[:-len(s)]
                if mode == "a" and w.lower().endswith("e") \
                        and in_rv(len(w) - 1):
                    w = w[:-1]
        did2 = (w != before)

    last_changed = did2 if ((not did1) or ment_found) else changed1
    if last_changed:
        # step 3
        if w.endswith("Y"):
            w = w[:-1] + "i"
        elif w.endswith("ç"):
            w = w[:-1] + "c"
    else:
        # step 4
        lw = w.lower()
        if lw.endswith("s") and len(w) >= 2 and \
                lw[-2] not in "aiouès" and w[-2] != "I":
            w = w[:-1]
            lw = w.lower()
        if lw.endswith("ion") and in_r2(len(w) - 3) and len(w) >= 4 \
                and lw[-4] in "st":
            w = w[:-3]
        else:
            for s, rep in (("ière", "i"), ("ier", "i")):
                if lw.endswith(s) and in_rv(len(w) - len(s)):
                    w = w[:-len(s)] + rep
                    break
            else:
                if w.endswith(("Ière", "Ier")):
                    w = w[:w.rindex("I")] + "i"
                elif lw.endswith("e") and in_rv(len(w) - 1):
                    w = w[:-1]
                elif lw.endswith("guë") and in_rv(len(w) - 1):
                    w = w[:-1]

    # step 5: undouble
    for s in ("enn", "onn", "ett", "ell", "eill"):
        if w.lower().endswith(s):
            w = w[:-1]
            break

    # step 6: un-accent final é/è + non-vowels
    i = len(w) - 1
    while i >= 0 and w[i].lower() not in _FR_VOWELS:
        i -= 1
    if i >= 0 and i < len(w) - 1 and w[i] in "éè":
        w = w[:i] + "e" + w[i + 1:]

    return w.lower()


# ---------------------------------------------------------------------------
# Italian
# ---------------------------------------------------------------------------

_IT_VOWELS = frozenset("aeiouàèìòù")
_IT_PRON = ("gliela", "gliele", "glieli", "glielo", "gliene", "sene",
            "mela", "mele", "meli", "melo", "mene", "tela", "tele",
            "teli", "telo", "tene", "cela", "cele", "celi", "celo",
            "cene", "vela", "vele", "veli", "velo", "vene", "gli",
            "ci", "la", "le", "li", "lo", "mi", "ne", "si", "ti", "vi")
_IT_STEP1_DEL_R2 = (
    "atrici", "atrice", "abile", "abili", "ibile", "ibili", "anza",
    "anze", "iche", "ichi", "ismo", "ismi", "ista", "iste", "isti",
    "istà", "istè", "istì", "ante", "anti", "ico", "ici", "ica", "ice",
    "oso", "osa", "osi", "ose")
_IT_STEP2 = (
    "erebbero", "irebbero", "assero", "assimo", "eranno", "erebbe",
    "eremmo", "ereste", "eresti", "essero", "iranno", "irebbe",
    "iremmo", "ireste", "iresti", "iscano", "iscono", "issero",
    "arono", "avamo", "avano", "avate", "eremo", "erete", "erono",
    "evamo", "evano", "evate", "iremo", "irete", "irono", "ivamo",
    "ivano", "ivate", "ammo", "ando", "asse", "assi", "emmo", "enda",
    "ende", "endi", "endo", "erai", "erei", "Yamo", "iamo", "immo",
    "irai", "irei", "isca", "isce", "isci", "isco", "ano", "are",
    "ata", "ate", "ati", "ato", "ava", "avi", "avo", "erà", "erò",
    "ere", "eva", "evi", "evo", "irà", "irò", "ire", "ita", "ite",
    "iti", "ito", "iva", "ivi", "ivo", "ono", "uta", "ute", "uti",
    "uto", "ar", "ir")


def _it_mark(word: str) -> str:
    chars = list(word)
    n = len(chars)
    for i in range(n):
        c = chars[i]
        if c in "ui" and 0 < i < n - 1 and word[i - 1] in _IT_VOWELS \
                and word[i + 1] in _IT_VOWELS:
            chars[i] = c.upper()
        elif c == "u" and i > 0 and word[i - 1] == "q":
            chars[i] = "U"
    return "".join(chars)


@lru_cache(maxsize=65536)
def italian_stem(word: str) -> str:
    # replace acute accents with grave (á→à etc., the spec's first step)
    word = word.translate(str.maketrans("áéíóú", "àèìòù"))
    w = _it_mark(word)
    rv = _es_rv_generic(w.lower(), _IT_VOWELS)
    r1, r2 = _standard_r1_r2(w.lower(), _IT_VOWELS)

    def in_rv(p): return p >= rv
    def in_r1(p): return p >= r1
    def in_r2(p): return p >= r2

    # step 0: attached pronoun, preceded by (a) ando/endo → delete,
    # (b) ar/er/ir → replace with e
    lw = w.lower()
    for p in _IT_PRON:
        if not lw.endswith(p):
            continue
        base = w[:-len(p)]
        lb = base.lower()
        if (lb.endswith("ando") or lb.endswith("endo")) \
                and in_rv(len(base) - 4):
            w = base
        elif (lb.endswith("ar") or lb.endswith("er") or lb.endswith("ir")) \
                and in_rv(len(base) - 2):
            w = base + "e"
        break

    lw = w.lower()
    step1_done = False
    cands = []
    for s in _IT_STEP1_DEL_R2:
        if lw.endswith(s) and in_r2(len(w) - len(s)):
            cands.append((len(s), s, "del"))
    for s in ("azioni", "azione", "atori", "atore"):
        if lw.endswith(s) and in_r2(len(w) - len(s)):
            cands.append((len(s), s, "ator"))
    for s in ("logie", "logia"):
        if lw.endswith(s) and in_r2(len(w) - len(s)):
            cands.append((len(s), s, "log"))
    for s in ("uzioni", "uzione", "usioni", "usione"):
        if lw.endswith(s) and in_r2(len(w) - len(s)):
            cands.append((len(s), s, "u"))
    for s in ("enze", "enza"):
        if lw.endswith(s) and in_r2(len(w) - len(s)):
            cands.append((len(s), s, "ente"))
    for s in ("amenti", "amento", "imenti", "imento"):
        if lw.endswith(s) and in_rv(len(w) - len(s)):
            cands.append((len(s), s, "del"))
    if lw.endswith("amente") and in_r1(len(w) - 6):
        cands.append((6, "amente", "amente"))
    elif lw.endswith("mente") and in_r2(len(w) - 5):
        cands.append((5, "mente", "del"))
    if lw.endswith("ità") and in_r2(len(w) - 3):
        cands.append((3, "ità", "ita"))
    for s in ("ivo", "ivi", "iva", "ive"):
        if lw.endswith(s) and in_r2(len(w) - len(s)):
            cands.append((len(s), s, "iv"))
    if cands:
        _, s, mode = max(cands, key=lambda c: c[0])
        w = w[:-len(s)]
        lw = w.lower()
        if mode == "ator":
            if lw.endswith("ic") and in_r2(len(w) - 2):
                w = w[:-2]
        elif mode == "log":
            w += "log"
        elif mode == "u":
            w += "u"
        elif mode == "ente":
            w += "ente"
        elif mode == "amente":
            if lw.endswith("iv") and in_r2(len(w) - 2):
                w = w[:-2]
                if w.lower().endswith("at") and in_r2(len(w) - 2):
                    w = w[:-2]
            else:
                for pre in ("os", "ic", "abil"):
                    if lw.endswith(pre) and in_r2(len(w) - len(pre)):
                        w = w[:-len(pre)]
                        break
        elif mode == "ita":
            for pre in ("abil", "ic", "iv"):
                if lw.endswith(pre) and in_r2(len(w) - len(pre)):
                    w = w[:-len(pre)]
                    break
        elif mode == "iv":
            if lw.endswith("at") and in_r2(len(w) - 2):
                w = w[:-2]
                if w.lower().endswith("ic") and in_r2(len(w) - 2):
                    w = w[:-2]
        step1_done = True

    if not step1_done:
        lw = w.lower()
        for s in _IT_STEP2:
            sl = s.lower()
            if lw.endswith(sl) and in_rv(len(w) - len(s)):
                w = w[:-len(s)]
                break

    # step 3a: final vowel in RV; then a preceding final i in RV
    lw = w.lower()
    if lw and lw[-1] in "aeioàèìò" and in_rv(len(w) - 1):
        w = w[:-1]
        if w.lower().endswith("i") and in_rv(len(w) - 1):
            w = w[:-1]
    # step 3b: ch → c, gh → g (in RV)
    lw = w.lower()
    if (lw.endswith("ch") or lw.endswith("gh")) and in_rv(len(w) - 1):
        w = w[:-1]
    return w.lower()


# ---------------------------------------------------------------------------
# Portuguese
# ---------------------------------------------------------------------------

_PT_VOWELS = frozenset("aeiouáéíóúâêô")
_PT_STEP1_DEL_R2 = (
    "amentos", "imentos", "amento", "imento", "ismos", "istas", "ezas",
    "icos", "icas", "ismo", "ável", "ível", "ista", "osos", "osas",
    "eza", "ico", "ica", "oso", "osa")
_PT_STEP2 = (
    "aríamos", "eríamos", "iríamos", "ássemos", "êssemos", "íssemos",
    "aríeis", "eríeis", "iríeis", "ásseis", "ésseis", "ísseis",
    "áramos", "éramos", "íramos", "ávamos", "aremos", "eremos",
    "iremos", "ariam", "eriam", "iriam", "assem", "essem", "issem",
    "arias", "erias", "irias", "ardes", "erdes", "irdes", "asses",
    "esses", "isses", "astes", "estes", "istes", "áreis", "areis",
    "éreis", "ereis", "íreis", "ireis", "áveis", "íamos", "armos",
    "ermos", "irmos", "aria", "eria", "iria", "asse", "esse", "isse",
    "aste", "este", "iste", "arei", "erei", "irei", "aram", "eram",
    "iram", "avam", "arem", "erem", "irem", "ando", "endo", "indo",
    "adas", "idas", "arás", "aras", "erás", "eras", "irás", "avas",
    "ares", "eres", "ires", "íeis", "ados", "idos", "ámos", "amos",
    "emos", "imos", "iras", "ada", "ida", "ará", "ara", "erá", "era",
    "irá", "ava", "iam", "ado", "ido", "ias", "ais", "eis", "ira",
    "ia", "ei", "am", "em", "ar", "er", "ir", "as", "es", "is", "eu",
    "iu", "ou")


def _es_rv_generic(word: str, vowels: frozenset) -> int:
    n = len(word)
    if n < 3:
        return n
    if word[1] not in vowels:
        for i in range(2, n):
            if word[i] in vowels:
                return i + 1
        return n
    if word[0] in vowels and word[1] in vowels:
        for i in range(2, n):
            if word[i] not in vowels:
                return i + 1
        return n
    return 3


_PT_UNACCENT = str.maketrans("áéíóúâêô", "aeiouaeo")


@lru_cache(maxsize=65536)
def portuguese_stem(word: str) -> str:
    w = word.replace("ã", "a~").replace("õ", "o~")
    rv = _es_rv_generic(w, _PT_VOWELS)
    r1, r2 = _standard_r1_r2(w, _PT_VOWELS)

    def in_rv(p): return p >= rv
    def in_r1(p): return p >= r1
    def in_r2(p): return p >= r2

    altered = False
    cands = []
    for s in _PT_STEP1_DEL_R2:
        if w.endswith(s) and in_r2(len(w) - len(s)):
            cands.append((len(s), s, "del"))
    for s in ("aço~es", "adoras", "adores", "aça~o", "adora", "ador",
              "ante", "antes", "ância"):
        if w.endswith(s) and in_r2(len(w) - len(s)):
            cands.append((len(s), s, "ador"))
    for s in ("logias", "logia"):
        if w.endswith(s) and in_r2(len(w) - len(s)):
            cands.append((len(s), s, "log"))
    for s in ("uço~es", "uça~o"):
        if w.endswith(s) and in_r2(len(w) - len(s)):
            cands.append((len(s), s, "u"))
    for s in ("ências", "ência"):
        if w.endswith(s) and in_r2(len(w) - len(s)):
            cands.append((len(s), s, "ente"))
    if w.endswith("amente") and in_r1(len(w) - 6):
        cands.append((6, "amente", "amente"))
    elif w.endswith("mente") and in_r2(len(w) - 5):
        cands.append((5, "mente", "mente"))
    for s in ("idades", "idade"):
        if w.endswith(s) and in_r2(len(w) - len(s)):
            cands.append((len(s), s, "idad"))
    for s in ("ivas", "ivos", "iva", "ivo"):
        if w.endswith(s) and in_r2(len(w) - len(s)):
            cands.append((len(s), s, "iv"))
    for s in ("iras", "ira"):
        if w.endswith(s) and in_rv(len(w) - len(s)) and \
                w[:len(w) - len(s)].endswith("e"):
            cands.append((len(s), s, "ir"))
    if cands:
        _, s, mode = max(cands, key=lambda c: c[0])
        base = w[:-len(s)]
        if mode == "del":
            w = base
        elif mode == "ador":
            w = base
            if w.endswith("ic") and in_r2(len(w) - 2):
                w = w[:-2]
        elif mode == "log":
            w = base + "log"
        elif mode == "u":
            w = base + "u"
        elif mode == "ente":
            w = base + "ente"
        elif mode == "amente":
            w = base
            if w.endswith("iv") and in_r2(len(w) - 2):
                w = w[:-2]
                if w.endswith("at") and in_r2(len(w) - 2):
                    w = w[:-2]
            else:
                for pre in ("os", "ic", "ad"):
                    if w.endswith(pre) and in_r2(len(w) - 2):
                        w = w[:-2]
                        break
        elif mode == "mente":
            w = base
            for pre in ("ante", "avel", "ível"):
                if w.endswith(pre) and in_r2(len(w) - len(pre)):
                    w = w[:-len(pre)]
                    break
        elif mode == "idad":
            w = base
            for pre in ("abil", "ic", "iv"):
                if w.endswith(pre) and in_r2(len(w) - len(pre)):
                    w = w[:-len(pre)]
                    break
        elif mode == "iv":
            w = base
            if w.endswith("at") and in_r2(len(w) - 2):
                w = w[:-2]
        elif mode == "ir":
            w = base + "ir"
        altered = True

    if not altered:
        for s in _PT_STEP2:
            if w.endswith(s) and in_rv(len(w) - len(s)):
                w = w[:-len(s)]
                altered = True
                break

    if altered:
        # step 3: delete final i preceded by c (in RV)
        if w.endswith("i") and in_rv(len(w) - 1) and \
                w[:-1].endswith("c"):
            w = w[:-1]
    else:
        # step 4: residual suffix
        for s in ("os", "a", "i", "o", "á", "í", "ó"):
            if w.endswith(s) and in_rv(len(w) - len(s)):
                w = w[:-len(s)]
                break

    # step 5: final e/é/ê in RV (+ gu/ci u/i removal); ç → c
    if w and w[-1] in "eéê" and in_rv(len(w) - 1):
        w = w[:-1]
        if (w.endswith("gu") and in_rv(len(w) - 1)) or \
                (w.endswith("ci") and in_rv(len(w) - 1)):
            w = w[:-1]
    elif w.endswith("ç"):
        w = w[:-1] + "c"

    return w.replace("a~", "ã").replace("o~", "õ").translate(_PT_UNACCENT) \
        .replace("ã", "a").replace("õ", "o")


# ---------------------------------------------------------------------------
# Romanian
# ---------------------------------------------------------------------------

_RO_VOWELS = frozenset("aăâeiîou")

_RO_STEP1 = (  # combining suffixes → shorter stem, repeated to fixpoint
    ("abilitate", "abil"), ("abilitati", "abil"), ("abilităţi", "abil"),
    ("ibilitate", "ibil"),
    ("ivitate", "iv"), ("ivitati", "iv"), ("ivităţi", "iv"),
    ("icitate", "ic"), ("icitati", "ic"), ("icităţi", "ic"),
    ("icatori", "ic"), ("icator", "ic"),
    ("iciva", "ic"), ("icive", "ic"), ("icivi", "ic"), ("icivă", "ic"),
    ("icala", "ic"), ("icale", "ic"), ("icali", "ic"), ("icală", "ic"),
    ("iciv", "ic"), ("ical", "ic"),
    ("ativa", "at"), ("ative", "at"), ("ativi", "at"), ("ativă", "at"),
    ("aţiune", "at"), ("atoare", "at"), ("ătoare", "at"),
    ("atori", "at"), ("ători", "at"),
    ("ativ", "at"), ("ator", "at"), ("ător", "at"),
    ("itiva", "it"), ("itive", "it"), ("itivi", "it"), ("itivă", "it"),
    ("iţiune", "it"), ("itoare", "it"), ("itori", "it"),
    ("itiv", "it"), ("itor", "it"),
)

_RO_STEP2_DEL = (
    "abila", "abile", "abili", "abilă", "ibila", "ibile", "ibili",
    "ibilă", "atori", "itate", "itati", "ităţi", "abil", "ibil",
    "oasa", "oasă", "oase", "anta", "ante", "anti", "antă", "ator",
    "ata", "ată", "ati", "ate", "uta", "ută", "uti", "ute", "ita",
    "ită", "iti", "ite", "ica", "ice", "ici", "ică", "osi", "oşi",
    "iva", "ive", "ivi", "ivă", "at", "ut", "it", "ic", "os", "iv",
    "ant")

_RO_VERB_1 = (  # delete if preceded by consonant or 'u' (in RV)
    "aserăţi", "aserăm", "âserăţi", "âserăm", "iserăţi", "iserăm",
    "userăţi", "userăm", "irăţi", "urăţi", "arăţi", "ârăţi", "aseşi",
    "aseră", "âseşi", "âseră", "iseşi", "iseră", "useşi", "useră",
    "indu", "ându", "ească", "ează", "eaţi", "iaţi", "arăm", "urăm",
    "irăm", "ârăm", "asem", "âsem", "isem", "usem", "are", "ere",
    "ire", "âre", "ind", "ând", "eze", "eşti", "eşte", "ăşti", "ăşte",
    "eam", "eai", "eau", "iam", "iai", "iau", "aşi", "uşi", "işi",
    "âşi", "ase", "âse", "ise", "use", "ară", "ură", "iră", "âră",
    "esc", "ăsc", "ez", "ezi", "ea", "ia", "ui", "âi", "am", "ai",
    "au")

_RO_VERB_2 = (  # delete unconditionally (in RV)
    "seserăţi", "seserăm", "seseşi", "seseră", "serăţi", "serăm",
    "sesem", "seşi", "seră", "sese", "aţi", "eţi", "iţi", "âţi",
    "sei", "ăm", "em", "im", "âm", "se")


@lru_cache(maxsize=65536)
def romanian_stem(word: str) -> str:
    # normalize comma-below forms to cedilla forms (both occur in text)
    w = word.replace("ș", "ş").replace("ț", "ţ")
    # mark i/u between vowels as consonants
    chars = list(w)
    for i in range(1, len(chars) - 1):
        if chars[i] in "iu" and chars[i - 1] in _RO_VOWELS \
                and chars[i + 1] in _RO_VOWELS:
            chars[i] = chars[i].upper()
    w = "".join(chars)
    lw = w.lower()
    rv = _es_rv_generic(lw, _RO_VOWELS)
    r1, r2 = _standard_r1_r2(lw, _RO_VOWELS)

    def in_rv(p): return p >= rv
    def in_r1(p): return p >= r1
    def in_r2(p): return p >= r2

    # step 0: plurals / articles (longest, in R1)
    lw = w.lower()
    for suf, rep in (("ilor", "i"), ("ului", ""), ("elor", "e"),
                     ("iile", "i"), ("iilor", "i"), ("atei", "at"),
                     ("aţie", "aţi"), ("aţia", "aţi"), ("aua", "a"),
                     ("ele", "e"), ("iua", "i"), ("iei", "i"),
                     ("ile", "i"), ("ul", ""), ("ii", "i"), ("ea", "e")):
        if lw.endswith(suf) and in_r1(len(w) - len(suf)):
            if suf == "ile" and lw.endswith("abile"):
                continue  # 'ile' not after 'ab'
            w = w[:-len(suf)] + rep
            break

    # step 1: combining suffixes to fixpoint
    changed = True
    while changed:
        changed = False
        lw = w.lower()
        best = None
        for suf, rep in _RO_STEP1:
            if lw.endswith(suf) and in_r1(len(w) - len(suf)):
                if best is None or len(suf) > len(best[0]):
                    best = (suf, rep)
        if best:
            w = w[:-len(best[0])] + best[1]
            changed = True

    # step 2: standard suffixes (longest, in R2)
    lw = w.lower()
    step2_done = False
    cands = []
    for s in _RO_STEP2_DEL:
        if lw.endswith(s) and in_r2(len(w) - len(s)):
            cands.append((len(s), s, ""))
    for s in ("iune", "iuni"):
        if lw.endswith(s) and in_r2(len(w) - len(s)) and \
                lw[:len(w) - len(s)].endswith("ţ"):
            cands.append((len(s) + 1, "ţ" + s, "t"))
    for s in ("isme", "ista", "iste", "isti", "istă", "işti", "ism",
              "ist"):
        if lw.endswith(s) and in_r2(len(w) - len(s)):
            cands.append((len(s), s, "ist"))
    if cands:
        _, s, rep = max(cands, key=lambda c: c[0])
        w = w[:-len(s)] + rep
        step2_done = True

    # step 3: verb suffixes (only when step 2 removed nothing; in RV)
    if not step2_done:
        lw = w.lower()
        done = False
        for s in _RO_VERB_1:
            i = len(w) - len(s)
            if lw.endswith(s) and in_rv(i) and i >= 1 and \
                    (lw[i - 1] not in _RO_VOWELS or lw[i - 1] == "u"):
                w = w[:-len(s)]
                done = True
                break
        if not done:
            for s in _RO_VERB_2:
                i = len(w) - len(s)
                if lw.endswith(s) and in_rv(i):
                    w = w[:-len(s)]
                    break

    # step 4: final vowel (longest of ie / a e i ă, in RV)
    lw = w.lower()
    if lw.endswith("ie") and in_rv(len(w) - 2):
        w = w[:-2]
    else:
        for s in ("a", "e", "i", "ă"):
            if lw.endswith(s) and in_rv(len(w) - 1):
                w = w[:-1]
                break
    return w.lower()


# ---------------------------------------------------------------------------
# Dutch
# ---------------------------------------------------------------------------

_NL_VOWELS = frozenset("aeiouyè")


def _nl_undouble(w: str) -> str:
    for p in ("kk", "dd", "tt"):
        if w.endswith(p):
            return w[:-1]
    return w


@lru_cache(maxsize=65536)
def dutch_stem(word: str) -> str:
    w = word.translate(str.maketrans("äëïöüáéíóú", "aeiouaeiou"))
    # mark consonant-role y/i: initial y, y after vowel, i between vowels
    chars = list(w)
    n = len(chars)
    for i in range(n):
        c = chars[i]
        if c == "y" and (i == 0 or w[i - 1] in _NL_VOWELS):
            chars[i] = "Y"
        elif c == "i" and 0 < i < n - 1 and w[i - 1] in _NL_VOWELS \
                and w[i + 1] in _NL_VOWELS:
            chars[i] = "I"
    w = "".join(chars)
    lw = w.lower()
    r1, r2 = _standard_r1_r2(lw, _NL_VOWELS)
    r1 = max(r1, 3) if len(w) >= 3 else r1

    def in_r1(p): return p >= r1
    def in_r2(p): return p >= r2

    e_removed = False
    # step 1
    lw = w.lower()
    if lw.endswith("heden") and in_r1(len(w) - 5):
        w = w[:-5] + "heid"
    elif lw.endswith(("ene", "en")):
        s = "ene" if lw.endswith("ene") else "en"
        i = len(w) - len(s)
        if in_r1(i) and i >= 1 and lw[i - 1] not in _NL_VOWELS \
                and not lw[:i].endswith("gem"):
            w = _nl_undouble(w[:-len(s)])
    elif lw.endswith(("se", "s")):
        s = "se" if lw.endswith("se") else "s"
        i = len(w) - len(s)
        if in_r1(i) and i >= 1 and lw[i - 1] not in _NL_VOWELS \
                and lw[i - 1] != "j":
            w = w[:-len(s)]

    # step 2: final e in R1 preceded by non-vowel
    lw = w.lower()
    if lw.endswith("e") and in_r1(len(w) - 1) and len(w) >= 2 \
            and lw[-2] not in _NL_VOWELS:
        w = _nl_undouble(w[:-1])
        e_removed = True

    # step 3a: heid (R2, not preceded by c) + a preceding en as step 1
    lw = w.lower()
    if lw.endswith("heid") and in_r2(len(w) - 4) and \
            not lw[:-4].endswith("c"):
        w = w[:-4]
        lw = w.lower()
        if lw.endswith("en"):
            i = len(w) - 2
            if in_r1(i) and i >= 1 and lw[i - 1] not in _NL_VOWELS \
                    and not lw[:i].endswith("gem"):
                w = _nl_undouble(w[:-2])

    # step 3b: d-suffixes
    lw = w.lower()
    if lw.endswith(("end", "ing")):
        if in_r2(len(w) - 3):
            w = w[:-3]
            lw = w.lower()
            if lw.endswith("ig") and in_r2(len(w) - 2) and \
                    not lw.endswith("eig"):
                w = w[:-2]
            else:
                w = _nl_undouble(w)
    elif lw.endswith("ig"):
        if in_r2(len(w) - 2) and not lw.endswith("eig"):
            w = w[:-2]
    elif lw.endswith("lijk"):
        if in_r2(len(w) - 4):
            w = w[:-4]
            lw = w.lower()
            if lw.endswith("e") and in_r1(len(w) - 1) and len(w) >= 2 \
                    and lw[-2] not in _NL_VOWELS:
                w = _nl_undouble(w[:-1])
    elif lw.endswith("baar"):
        if in_r2(len(w) - 4):
            w = w[:-4]
    elif lw.endswith("bar"):
        if in_r2(len(w) - 3) and e_removed:
            w = w[:-3]

    # step 4: undouble vowel — C + vv + C(not I) at the end
    lw = w.lower()
    if len(w) >= 4 and lw[-1] not in _NL_VOWELS and w[-1] != "I" \
            and lw[-2] == lw[-3] and lw[-2] in "aeou" \
            and lw[-4] not in _NL_VOWELS:
        w = w[:-2] + w[-1]
    return w.lower()


# ---------------------------------------------------------------------------
# Scandinavian family (Swedish / Norwegian / Danish) — shared shape:
# R1 with the "at least 3 letters before R1" adjustment, one large
# a-suffix step, an undouble/consonant step, and a d-suffix step.
# ---------------------------------------------------------------------------

_SV_VOWELS = frozenset("aeiouyäåö")
_SV_S_END = frozenset("bcdfghjklmnoprtvy")
_SV_STEP1 = ("heterna", "hetens", "arnas", "ernas", "ornas", "heten",
             "heter", "anden", "andes", "andet", "arens", "arna", "erna",
             "orna", "ande", "arne", "aste", "aren", "ades", "erns",
             "ad", "ade", "are", "ern", "ens", "het", "ast", "ar", "er",
             "or", "as", "es", "at", "en", "a", "e")

_NO_VOWELS = frozenset("aeiouyæåø")
_NO_S_END = frozenset("bcdfghjlmnoprtvyz")
_NO_STEP1 = ("hetenes", "hetene", "hetens", "heten", "heter", "endes",
             "edes", "enes", "erte", "ande", "ende", "ane", "ene", "ens",
             "ers", "ets", "het", "ast", "ert", "ede", "en", "ar", "er",
             "as", "es", "et", "a", "e")
_NO_STEP3 = ("hetslov", "eleg", "elig", "elov", "slov", "leg", "eig",
             "lig", "els", "lov", "ig")

_DA_VOWELS = frozenset("aeiouyæåø")
_DA_S_END = frozenset("abcdfghjklmnoprtvyzå")
_DA_STEP1 = ("erendes", "erende", "hedens", "ethed", "erede", "heden",
             "heder", "endes", "ernes", "erens", "erets", "ered", "ende",
             "erne", "eren", "erer", "heds", "enes", "eres", "eret",
             "hed", "ene", "ere", "ens", "ers", "ets", "en", "er", "es",
             "et", "e")


def _r1_min3(word: str, vowels: frozenset) -> int:
    r1, _ = _standard_r1_r2(word, vowels)
    return max(r1, 3) if len(word) >= 3 else r1


def _longest_suffix_in_r1(word: str, sufs, r1: int):
    for s in sufs:  # tuples are ordered longest-first
        if word.endswith(s) and len(word) - len(s) >= r1:
            return s
    return None


@lru_cache(maxsize=65536)
def swedish_stem(word: str) -> str:
    w = word
    r1 = _r1_min3(w, _SV_VOWELS)
    # step 1: a-suffixes, else s preceded by a valid s-ending
    s = _longest_suffix_in_r1(w, _SV_STEP1, r1)
    if s:
        w = w[:-len(s)]
    elif w.endswith("s") and len(w) - 1 >= r1 and len(w) >= 2 \
            and w[-2] in _SV_S_END:
        w = w[:-1]
    # step 2: consonant pairs → remove last letter
    for p in ("dd", "gd", "nn", "dt", "gt", "kt", "tt"):
        if w.endswith(p) and len(w) - 2 >= r1:
            w = w[:-1]
            break
    # step 3
    if w.endswith("fullt") and len(w) - 5 >= r1:
        w = w[:-1]
    elif w.endswith("löst") and len(w) - 4 >= r1:
        w = w[:-1]
    else:
        for s in ("lig", "els", "ig"):
            if w.endswith(s) and len(w) - len(s) >= r1:
                w = w[:-len(s)]
                break
    return w


@lru_cache(maxsize=65536)
def norwegian_stem(word: str) -> str:
    w = word
    r1 = _r1_min3(w, _NO_VOWELS)
    s = _longest_suffix_in_r1(w, _NO_STEP1, r1)
    if s in ("erte", "ert"):
        w = w[:-len(s)] + "er"
    elif s:
        w = w[:-len(s)]
    elif w.endswith("s") and len(w) - 1 >= r1 and len(w) >= 2 and (
            w[-2] in _NO_S_END
            or (w[-2] == "k" and (len(w) < 3
                                  or w[-3] not in _NO_VOWELS))):
        w = w[:-1]
    # step 2: dt / vt → delete t
    for p in ("dt", "vt"):
        if w.endswith(p) and len(w) - 2 >= r1:
            w = w[:-1]
            break
    # step 3: d-suffixes
    s = _longest_suffix_in_r1(w, _NO_STEP3, r1)
    if s:
        w = w[:-len(s)]
    return w


@lru_cache(maxsize=65536)
def danish_stem(word: str) -> str:
    w = word
    r1 = _r1_min3(w, _DA_VOWELS)
    s = _longest_suffix_in_r1(w, _DA_STEP1, r1)
    if s:
        w = w[:-len(s)]
    elif w.endswith("s") and len(w) - 1 >= r1 and len(w) >= 2 \
            and w[-2] in _DA_S_END:
        w = w[:-1]
    # step 2: gd dt gt kt → remove last letter
    for p in ("gd", "dt", "gt", "kt"):
        if w.endswith(p) and len(w) - 2 >= r1:
            w = w[:-1]
            break
    # step 3
    if w.endswith("igst"):
        w = w[:-2]
    s = _longest_suffix_in_r1(w, ("elig", "lig", "els", "ig"), r1)
    if s:
        w = w[:-len(s)]
        # repeat step 2
        for p in ("gd", "dt", "gt", "kt"):
            if w.endswith(p) and len(w) - 2 >= r1:
                w = w[:-1]
                break
    elif w.endswith("løst") and len(w) - 4 >= r1 - 1:
        w = w[:-1]
    # step 4: undouble a final double consonant in R1
    if len(w) >= 2 and w[-1] == w[-2] and w[-1] not in _DA_VOWELS \
            and len(w) - 1 >= r1:
        w = w[:-1]
    return w


# ---------------------------------------------------------------------------
# Finnish
# ---------------------------------------------------------------------------

_FI_VOWELS = frozenset("aeiouyäö")
_FI_RESTRICTED = frozenset("aeiouäö")  # V: vowels minus y
_FI_LONG = ("aa", "ee", "ii", "oo", "uu", "ää", "öö")
_FI_PARTICLE_PRE = frozenset("ntaeiouyäö")

_FI_STEP1 = ("kään", "kaan", "sti", "kin", "han", "hän", "ko", "kö",
             "pa", "pä")
_FI_STEP2 = ("nsa", "nsä", "mme", "nne", "si", "ni", "an", "än", "en")
_FI_STEP3 = ("seen", "siin", "tten", "han", "hen", "hin", "hon", "hun",
             "hän", "hön", "den", "tta", "ttä", "ssa", "ssä", "sta",
             "stä", "lla", "llä", "lta", "ltä", "lle", "ksi", "ine",
             "ta", "tä", "na", "nä", "a", "ä", "n")
_FI_STEP4 = ("impi", "impa", "impä", "immi", "imma", "immä",
             "eja", "ejä", "mpi", "mpa", "mpä", "mmi", "mma", "mmä")


@lru_cache(maxsize=65536)
def finnish_stem(word: str) -> str:
    """Snowball Finnish (snowballstem.org/algorithms/finnish/stemmer.html):
    particle → possessive → case → comparative → plural → tidy, with R1/R2
    fixed from the original word (reference rust-stemmers Finnish,
    /root/reference/src/tokenizer/stemmer.rs:63-120)."""
    w = word
    r1, r2 = _standard_r1_r2(w, _FI_VOWELS)

    # step 1: particles (kin/kaan/... if preceded by n, t or vowel) + sti
    s = _longest_suffix_in_r1(w, _FI_STEP1, r1)
    if s == "sti":
        if len(w) - 3 >= r2:
            w = w[:-3]
    elif s is not None:
        if len(w) > len(s) and w[-len(s) - 1] in _FI_PARTICLE_PRE:
            w = w[:-len(s)]

    # step 2: possessives
    s = _longest_suffix_in_r1(w, _FI_STEP2, r1)
    if s in ("nsa", "nsä", "mme", "nne"):
        w = w[:-3]
    elif s == "si":
        if not (len(w) > 2 and w[-3] == "k"):
            w = w[:-2]
    elif s == "ni":
        w = w[:-2]
        if w.endswith("kse"):
            w = w[:-1] + "i"
    elif s == "an":
        if any(w[:-2].endswith(p) for p in
               ("ta", "ssa", "sta", "lla", "lta", "na")):
            w = w[:-2]
    elif s == "än":
        if any(w[:-2].endswith(p) for p in
               ("tä", "ssä", "stä", "llä", "ltä", "nä")):
            w = w[:-2]
    elif s == "en":
        if any(w[:-2].endswith(p) for p in ("lle", "ine")):
            w = w[:-2]

    # step 3: cases (longest match commits; failed condition = no-op)
    ending_removed = False
    s = _longest_suffix_in_r1(w, _FI_STEP3, r1)
    if s in ("han", "hen", "hin", "hon", "hun", "hän", "hön"):
        if len(w) > 3 and w[-4] == s[1]:  # hXn preceded by X
            w = w[:-3]
            ending_removed = True
    elif s in ("siin", "den", "tten"):
        k = len(s)
        if (len(w) > k + 1 and w[-k - 1] == "i"
                and w[-k - 2] in _FI_RESTRICTED):
            w = w[:-k]
            ending_removed = True
    elif s == "seen":
        if w[:-4][-2:] in _FI_LONG:
            w = w[:-4]
            ending_removed = True
    elif s in ("a", "ä"):
        if (len(w) > 2 and w[-2] in _FI_VOWELS
                and w[-3] not in _FI_VOWELS):
            w = w[:-1]
            ending_removed = True
    elif s in ("tta", "ttä"):
        if len(w) > 3 and w[-4] == "e":
            w = w[:-3]
            ending_removed = True
    elif s in ("ta", "tä", "ssa", "ssä", "sta", "stä", "lla", "llä",
               "lta", "ltä", "lle", "na", "nä", "ksi", "ine"):
        w = w[:-len(s)]
        ending_removed = True
    elif s == "n":
        w = w[:-1]
        ending_removed = True
        if w[-2:] in _FI_LONG or w.endswith("ie"):
            w = w[:-1]

    # step 4: comparatives (R2)
    s = _longest_suffix_in_r1(w, _FI_STEP4, r2)
    if s in ("mpi", "mpa", "mpä", "mmi", "mma", "mmä"):
        if not w[:-3].endswith("po"):
            w = w[:-3]
    elif s is not None:
        w = w[:-len(s)]

    # step 5: plurals
    if ending_removed:
        if w and w[-1] in "ij" and len(w) - 1 >= r1:
            w = w[:-1]
    else:
        if (w.endswith("t") and len(w) - 1 >= r1 and len(w) > 1
                and w[-2] in _FI_VOWELS):
            w = w[:-1]
            s = _longest_suffix_in_r1(w, ("imma", "mma"), r2)
            if s == "imma":
                w = w[:-4]
            elif s == "mma" and not w[:-3].endswith("po"):
                w = w[:-3]

    # step 6: tidying
    # a) R1 ends a long vowel (or ie) → drop the last letter
    if (w[-2:] in _FI_LONG or w.endswith("ie")) and len(w) - 2 >= r1:
        w = w[:-1]
    # b) R1 ends consonant + {a ä e i} → drop the last letter
    if (len(w) >= 2 and len(w) - 2 >= r1 and w[-1] in "aäei"
            and w[-2] not in _FI_VOWELS):
        w = w[:-1]
    # c) R1 ends oj / uj → drop the j
    if w[-2:] in ("oj", "uj") and len(w) - 2 >= r1:
        w = w[:-1]
    # d) R1 ends jo → drop the o
    if w.endswith("jo") and len(w) - 2 >= r1:
        w = w[:-1]
    # e) a double consonant followed only by vowels loses its second half
    i = len(w)
    while i > 0 and w[i - 1] in _FI_VOWELS:
        i -= 1
    if i >= 2 and w[i - 1] == w[i - 2] and w[i - 1] not in _FI_VOWELS:
        w = w[:i - 1] + w[i:]
    return w


# ---------------------------------------------------------------------------
# Hungarian
# ---------------------------------------------------------------------------

_HU_VOWELS = frozenset("aáeéiíoóöőuúüű")
_HU_DIGRAPHS = ("dzs", "cs", "dz", "gy", "ly", "ny", "sz", "ty", "zs")
_HU_DOUBLED = ("ccs", "ddz", "ggy", "lly", "nny", "ssz", "tty", "zzs",
               "bb", "cc", "dd", "ff", "gg", "jj", "kk", "ll", "mm",
               "nn", "pp", "rr", "ss", "tt", "vv", "zz")


def _hu_r1(word: str) -> int:
    """Hungarian R1: after the first consonant/digraph if the word starts
    with a vowel, else after the first vowel."""
    n = len(word)
    if n == 0:
        return 0
    if word[0] in _HU_VOWELS:
        i = 0
        while i < n and word[i] in _HU_VOWELS:
            i += 1
        if i >= n:
            return n
        for d in _HU_DIGRAPHS:
            if word.startswith(d, i):
                return i + len(d)
        return i + 1
    for i in range(n):
        if word[i] in _HU_VOWELS:
            return i + 1
    return n


def _hu_undouble(w: str) -> str:
    """kk→k, ssz→sz, ccs→cs ... (remove the first letter of the pair)."""
    for d in ("ccs", "ddz", "ggy", "lly", "nny", "ssz", "tty", "zzs"):
        if w.endswith(d):
            return w[:-3] + d[1:]
    if len(w) >= 2 and w[-1] == w[-2] and w[-1] not in _HU_VOWELS:
        return w[:-1]
    return w


def _hu_unaccent_last(w: str) -> str:
    if w.endswith("á"):
        return w[:-1] + "a"
    if w.endswith("é"):
        return w[:-1] + "e"
    return w


_HU_CASE = ("onként", "enként", "anként", "képpen", "ként", "képp",
            "ban", "ben", "tól", "től", "ról", "ről", "ból", "ből",
            "hoz", "hez", "höz", "nál", "nél", "kor", "ba", "be",
            "ra", "re", "rá", "ré", "ig", "at", "et", "ot", "öt",
            "ért", "ul", "ül", "vá", "vé", "en", "on", "an", "ön",
            "n", "t")
_HU_OWNED = ("áéi", "ééi", "áké", "éké", "oké", "öké", "aké", "eké",
             "éi", "ké", "é")
_HU_SING_OWNER = ("ünk", "unk", "ánk", "énk", "juk", "jük", "nk",
                  "uk", "ük", "ám", "ém", "em", "om", "am", "ád",
                  "éd", "ed", "od", "ad", "öd", "ája", "éje", "ja",
                  "je", "m", "d", "a", "e", "o", "á", "é")
_HU_PLUR_OWNER = ("jaink", "jeink", "aink", "eink", "áink", "éink",
                  "ink", "jaitok", "jeitek", "aitok", "eitek",
                  "áitok", "éitek", "itek", "jeik", "jaik", "aik",
                  "eik", "áik", "éik", "ik", "jaim", "jeim", "aim",
                  "eim", "áim", "éim", "im", "jaid", "jeid", "aid",
                  "eid", "áid", "éid", "id", "jai", "jei", "ai", "ei",
                  "ái", "éi", "i")


@lru_cache(maxsize=65536)
def hungarian_stem(word: str) -> str:
    """Snowball Hungarian (snowballstem.org/algorithms/hungarian/
    stemmer.html): instrumental undoubling, case endings with final
    á/é de-accenting, owned/owner suffix layers, plural — all within
    the Hungarian R1 (after the first consonant or digraph for
    vowel-initial words)."""
    w = word
    r1 = _hu_r1(w)

    def in_r1(k: int) -> bool:
        return len(w) - k >= r1

    # step 1: instrumental -val/-vel assimilated onto a double consonant
    if (w.endswith("al") or w.endswith("el")) and in_r1(2):
        rest = w[:-2]
        if any(rest.endswith(d) for d in _HU_DOUBLED):
            w = _hu_undouble(rest)
            return w if len(w) > 1 else word
    # step 2: case endings; de-accent a resulting final á/é
    s = _longest_suffix_in_r1(w, _HU_CASE, r1)
    if s:
        w = _hu_unaccent_last(w[:-len(s)])
    # step 3: special á/é cases
    if w.endswith("ánként") and len(w) - 6 >= r1:
        w = w[:-6] + "a"
    elif w.endswith("án") and len(w) - 2 >= r1:
        w = w[:-2] + "a"
    elif w.endswith("én") and len(w) - 2 >= r1:
        w = w[:-2] + "e"
    # step 4: -stul/-stül family
    for s, rep in (("ástul", "a"), ("éstül", "e"), ("astul", ""),
                   ("estül", ""), ("stul", ""), ("stül", "")):
        if w.endswith(s) and len(w) - len(s) >= r1:
            w = w[:-len(s)] + rep
            break
    # step 5: factive á/é on a doubled consonant
    if w[-1:] in ("á", "é") and len(w) - 1 >= r1:
        rest = w[:-1]
        if any(rest.endswith(d) for d in _HU_DOUBLED):
            w = _hu_undouble(rest)
    # step 6: owned (-é, -éi, -ké ...)
    s = _longest_suffix_in_r1(w, _HU_OWNED, r1)
    if s:
        rep = "a" if s.startswith("á") else ("e" if s.startswith("é")
                                             and s != "é" and s != "éi"
                                             else "")
        w = w[:-len(s)] + rep
    # step 7: singular owner suffixes
    s = _longest_suffix_in_r1(w, _HU_SING_OWNER, r1)
    if s:
        rep = ("a" if s[0] == "á" else
               "e" if s[0] == "é" else "")
        w = w[:-len(s)] + rep
    # step 8: plural owner suffixes
    s = _longest_suffix_in_r1(w, _HU_PLUR_OWNER, r1)
    if s:
        rep = ("a" if s[0] == "á" else
               "e" if s[0] == "é" else "")
        w = w[:-len(s)] + rep
    # step 9: plural -k with á/é de-accenting
    for s, rep in (("ák", "a"), ("ék", "e"), ("ök", ""), ("ok", ""),
                   ("ek", ""), ("ak", ""), ("k", "")):
        if w.endswith(s) and len(w) - len(s) >= r1:
            w = w[:-len(s)] + rep
            break
    return w


# ---------------------------------------------------------------------------
# Turkish
# ---------------------------------------------------------------------------

_TR_VOWELS = frozenset("aeıioöuü")
_TR_BACK = frozenset("aıou")     # back vowels take a / ı / u
_TR_FRONT = frozenset("eiöü")

# inflectional suffix groups of the published Snowball Turkish stemmer
# (Çilden): plural, possessive, case, copula/tense — enumerated as
# literal harmony variants, longest first; stripped iteratively
_TR_SUFFIXES = (
    "larınız", "leriniz", "larımız", "lerimiz",
    "ımız", "imiz", "umuz", "ümüz", "ınız", "iniz", "unuz", "ünüz",
    "ları", "leri", "ların", "lerin", "lara", "lere", "larda", "lerde",
    "lardan", "lerden",
    "mış", "miş", "muş", "müş", "dır", "dir", "dur", "dür",
    "tır", "tir", "tur", "tür", "yla", "yle", "nın", "nin", "nun",
    "nün", "dan", "den", "tan", "ten", "mız", "miz", "muz", "müz",
    "nız", "niz", "nuz", "nüz", "lar", "ler", "ken",
    "da", "de", "ta", "te", "ya", "ye", "yı", "yi", "yu", "yü",
    "ın", "in", "un", "ün", "ım", "im", "um", "üm", "sı", "si",
    "su", "sü", "dı", "di", "du", "dü", "tı", "ti", "tu", "tü",
    "sa", "se", "ca", "ce", "ça", "çe", "ki",
    "ı", "i", "u", "ü", "a", "e",
)


def _tr_harmonic(stem: str, suffix: str) -> bool:
    """Vowel harmony: the suffix's first vowel must agree with the last
    stem vowel (2-way a/e, 4-way ı/i/u/ü)."""
    sv = next((c for c in suffix if c in _TR_VOWELS), None)
    if sv is None:
        return True
    last = next((c for c in reversed(stem) if c in _TR_VOWELS), None)
    if last is None:
        return False
    if sv in "ae":
        return (sv == "a") == (last in _TR_BACK)
    four = {"a": "ı", "ı": "ı", "o": "u", "u": "u",
            "e": "i", "i": "i", "ö": "ü", "ü": "ü"}
    return four.get(last) == sv


@lru_cache(maxsize=65536)
def turkish_stem(word: str) -> str:
    """Turkish stemmer following the published Snowball Turkish
    description (Çilden — harmony-checked iterative stripping of the
    inflectional suffix chain, then final-consonant restoration
    b→p c→ç d→t ğ→k).  Reference ships the same algorithm through
    rust-stemmers (src/tokenizer/stemmer.rs:63-120)."""
    w = word
    for _ in range(4):  # suffixes stack; strip one layer per pass
        for s in _TR_SUFFIXES:
            if not w.endswith(s):
                continue
            rest = w[:-len(s)]
            if len(rest) < 2:
                continue
            if not any(c in _TR_VOWELS for c in rest):
                continue
            if not _tr_harmonic(rest, s):
                continue
            # a bare-vowel suffix only follows a consonant (after vowels
            # Turkish inserts the buffer y/s/n, matched by the longer
            # variants above)
            if s[0] in _TR_VOWELS and rest[-1] in _TR_VOWELS:
                continue
            w = rest
            break
        else:
            break
    # final devoiced-consonant restoration (kitabı → kitab → kitap)
    if w != word:
        w = {"b": w[:-1] + "p", "c": w[:-1] + "ç",
             "d": w[:-1] + "t", "ğ": w[:-1] + "k"}.get(w[-1], w)
    return w


# ---------------------------------------------------------------------------
# Greek — full step structure of the published Ntais algorithm (G. Ntais
# 2006, "Development of a Stemmer for the Greek Language", the basis of
# Snowball Greek and the reference's rust-stemmers Greek;
# /root/reference/src/tokenizer/stemmer.rs:79): step 1 irregular-noun
# table, steps 2a-2d plural/genitive with re-attachment, steps 3-4
# -ΙΑ/-ΙΚΑ with vowel re-attachment, steps 5a-5m verb endings with
# per-rule exception lists, step 6 regular inflection (gated on no
# earlier verb rule firing), step 7 comparatives.  Tables are from the
# published description, lowercased and σ-normalized (the analyzer's
# LowerCaser never emits final sigma).
# ---------------------------------------------------------------------------

_EL_VOWELS = frozenset("αεηιουω")
_EL_VOWELS2 = frozenset("αεηιοω")  # step-5 re-attachment set (no υ)

# prelude (as in Snowball Greek's tolower): strip tonos/dialytika from
# vowels and normalize final sigma before any rule runs
_EL_PRELUDE = str.maketrans({
    "ά": "α", "έ": "ε", "ή": "η", "ί": "ι", "ό": "ο", "ύ": "υ",
    "ώ": "ω", "ϊ": "ι", "ϋ": "υ", "ΐ": "ι", "ΰ": "υ", "ς": "σ"})

# step 1: irregular nouns whose stems the suffix rules cannot reach
_EL_STEP1 = {
    "φαγια": "φα", "φαγιου": "φα", "φαγιων": "φα",
    "σκαγια": "σκα", "σκαγιου": "σκα", "σκαγιων": "σκα",
    "ολογιου": "ολο", "ολογια": "ολο", "ολογιων": "ολο",
    "σογιου": "σο", "σογια": "σο", "σογιων": "σο",
    "τατογια": "τατο", "τατογιου": "τατο", "τατογιων": "τατο",
    "κρεασ": "κρε", "κρεατοσ": "κρε", "κρεατα": "κρε", "κρεατων": "κρε",
    "περασ": "περ", "περατοσ": "περ", "περατα": "περ", "περατων": "περ",
    "τερασ": "τερ", "τερατοσ": "τερ", "τερατα": "τερ", "τερατων": "τερ",
    "φωσ": "φω", "φωτοσ": "φω", "φωτα": "φω", "φωτων": "φω",
    "καθεστωσ": "καθεστ", "καθεστωτοσ": "καθεστ",
    "καθεστωτα": "καθεστ", "καθεστωτων": "καθεστ",
    "γεγονοσ": "γεγον", "γεγονοτοσ": "γεγον",
    "γεγονοτα": "γεγον", "γεγονοτων": "γεγον",
}

# per-step exception stems (exact-match sets; *_END tuples are ends-with)
_EL_EX_2A = frozenset((  # kinship nouns keep the bare stem (γιαγιαδεσ→γιαγι)
    "οκ", "μαμ", "μαν", "μπαμπ", "πατερ", "γιαγι", "νταντ", "κυρ",
    "θει", "πεθερ"))
_EL_EX_2B_END = (
    "οπ", "ιπ", "εμπ", "υπ", "γηπ", "δαπ", "κρασπ", "μιλ")
_EL_EX_2C_END = (
    "αρκ", "καλιακ", "πεταλ", "λιχ", "πλεξ", "σκ", "σ", "φλ", "φρ",
    "βελ", "λουλ", "χν", "σπ", "τραγ", "φε")
_EL_EX_2D = frozenset(("θ", "δ", "ελ", "γαλ", "ν", "π", "ιδ", "παρ"))
_EL_EX_4 = frozenset((
    "αλ", "αδ", "ενδ", "αμαν", "αμμοχαλ", "ηθ", "ανηθ", "αντιδ", "φυσ",
    "βρωμ", "γερ", "εξωδ", "καλπ", "καλλιν", "καταδ", "μουλ", "μπαν",
    "μπαγιατ", "μπολ", "μποσ", "νιτ", "ξικ", "συνομηλ", "πετσ", "πιτσ",
    "πικαντ", "πλιατσ", "ποστελν", "πρωτοδ", "σερτ", "συναδ", "τσαμ",
    "υποδ", "φιλον", "φυλοδ", "χασ"))
_EL_EX_5A = frozenset((
    "αναπ", "αποθ", "αποκ", "αποστ", "βουβ", "ξεθ", "ουλ", "πεθ",
    "πικρ", "ποτ", "σιχ", "χ"))
_EL_EX_5B1 = frozenset(("τρ", "τσ"))
_EL_EX_5B2 = frozenset((
    "βετερ", "βουλκ", "βραχμ", "γ", "δραδουμ", "θ", "καλπουζ",
    "καστελ", "κορμορ", "λαοπλ", "μωαμεθ", "μ", "μουσουλμ", "ν", "ουλ",
    "π", "πελεκ", "πλ", "πολισ", "πορτολ", "σαρακατσ", "σουλτ",
    "τσαρλατ", "ορφ", "τσιγγ", "τσοπ", "φωτοστεφ", "χ", "ψυχοπλ", "αγ",
    "γαλ", "γερ", "δεκ", "διπλ", "αμερικαν", "ουρ", "πιθ", "πουριτ",
    "σ", "ζωντ", "ικ", "καστ", "κοπ", "λιχ", "λουθηρ", "μαιντ", "μελ",
    "σιγ", "σπ", "στεγ", "τραγ", "τσαγ", "φ", "ερ", "αδαπ", "αθιγγ",
    "αμηχ", "ανικ", "ανοργ", "απηγ", "απιθ", "ατσιγγ", "βασ", "βασκ",
    "βαθυγαλ", "βιομηχ", "βραχυκ", "διατ", "διαφ", "ενοργ", "θυσ",
    "καπνοβιομηχ", "καταγαλ", "κλιβ", "κοιλαρφ", "λιβ", "μεγλοβιομηχ",
    "μικροβιομηχ", "νταβ", "ξηροκλιβ", "ολιγοδαμ", "ολογαλ", "πενταρφ",
    "περηφ", "περιτρ", "πλατ", "πολυδαπ", "πολυμηχ", "στεφ", "ταβ",
    "τετ", "υπερηφ", "υποκοπ", "χαμηλοδαπ", "ψηλοταβ"))
_EL_EX_5C_END = (
    "οδ", "αιρ", "φορ", "ταθ", "διαθ", "σχ", "ενδ", "ευρ", "τιθ",
    "υπερθ", "ραθ", "ενθ", "ροθ", "σθ", "πυρ", "αιν", "συνδ", "συν",
    "συνθ", "χωρ", "πον", "βρ", "καθ", "ευθ", "εκθ", "νετ", "ρον",
    "αρκ", "βαρ", "βολ", "ωφελ")
_EL_EX_5C = frozenset((
    "αβαρ", "βεν", "εναρ", "αβρ", "αδ", "αθ", "αν", "απλ", "βαρον",
    "ντρ", "σκ", "κοπ", "μπορ", "νιφ", "παγ", "παρακαλ", "σερπ",
    "σκελ", "συρφ", "τοκ", "υ", "δ", "εμ", "θαρρ", "θ"))
_EL_EX_5D = frozenset(("αρχ",))
_EL_EX_5E = frozenset(("ον",))
_EL_EX_5F1 = frozenset(("π", "απ", "συμπ", "ασυμπ", "ακαταπ", "αμεταμφ"))
_EL_EX_5F2 = frozenset((
    "αλ", "αρ", "εκτελ", "ζ", "μ", "ξ", "παρακαλ", "προ", "νισ"))
_EL_EX_5G1 = frozenset((
    "διαθ", "θ", "παρακαταθ", "προσθ", "συνθ"))
_EL_EX_5G_END = ("σκωλ", "σκουλ", "ναρθ", "σφ", "οθ", "πιθ")
_EL_EX_5H_END = (
    "ποδαρ", "βλεπ", "πανταχ", "φρυδ", "μαντιλ", "μαλλ", "κυματ",
    "λαχ", "ληγ", "φαγ", "ομ", "πρωτ")
_EL_EX_5H = frozenset((
    "φαρμακ", "χαδ", "αγκ", "αναρρ", "βρομ", "εκλιπ", "λαμπιδ", "λεχ",
    "μ", "πατ", "ρ", "λ", "μεδ", "μεσαζ", "υποτειν", "αμ", "αιθ",
    "ανηκ", "δεσποζ", "ενδιαφερ", "δε", "δευτερευ", "καθαρευ", "πλε",
    "τσα"))
_EL_EX_5I_NOT = frozenset(("ψοφ", "ναυλοχ"))
_EL_EX_5I = frozenset((
    "αβαστ", "πολυφ", "αδηφ", "παμφ", "ρ", "ασπ", "αφ", "αμαλ",
    "αμαλλι", "ανυστ", "απερ", "ασπαρ", "αχαρ", "δερβεν", "δροσοπ",
    "ξεφ", "νεοπ", "νομοτ", "ολοπ", "ομοτ", "προστ", "προσωποπ",
    "συμπ", "συντ", "τ", "υποτ", "χαρ", "αειπ", "αιμοστ", "ανυπ",
    "αποτ", "αρτιπ", "διατ", "εν", "επιτ", "κροκαλοπ", "σιδηροπ", "λ",
    "ναυ", "ουλαμ", "ουρ", "π", "τρ", "μ"))
_EL_EX_5J = frozenset((
    "ν", "χερσον", "δωδεκαν", "ερημον", "μεγαλον", "επταν"))
_EL_EX_5K = frozenset((
    "ασβ", "σβ", "αχρ", "χρ", "απλ", "αειμν", "δυσχρ", "ευχρ",
    "κοινοχρ", "παλιμψ"))
_EL_EX_5L = frozenset((
    "ν", "ρ", "σπι", "στραβομουτσ", "κακομουτσ", "εξων"))
_EL_EX_5M = frozenset((
    "παρασουσ", "φ", "χ", "ωριοπλ", "αζ", "αλλοσουσ", "ασουσ"))

# step 6 part 2: the regular inflectional endings of Greek nouns,
# adjectives and verbs — stripped only when no step-5 verb rule fired
_EL_STEP6 = tuple(sorted((
    "α", "αγατε", "αγαν", "αει", "αμαι", "αν", "ασ", "ασαι", "αται",
    "αω", "ε", "ει", "εισ", "ειτε", "εσαι", "εσ", "εται", "ι", "ιεμαι",
    "ιεμαστε", "ιεται", "ιεσαι", "ιεσαστε", "ιομασταν", "ιομουν",
    "ιομουνα", "ιονταν", "ιοντουσαν", "ιοσασταν", "ιοσαστε", "ιοσουν",
    "ιοσουνα", "ιοταν", "ιουμα", "ιουμαστε", "ιουνται", "ιουνταν",
    "η", "ηδεσ", "ηδων", "ηθει", "ηθεισ", "ηθειτε", "ηθηκατε",
    "ηθηκαν", "ηθουν", "ηθω", "ηκατε", "ηκαν", "ησ", "ησαν", "ησατε",
    "ησει", "ησεσ", "ησουν", "ησω", "ο", "οι", "ομαι", "ομασταν",
    "ομουν", "ομουνα", "ονται", "ονταν", "οντουσαν", "οσ", "οσασταν",
    "οσαστε", "οσουν", "οσουνα", "οταν", "ου", "ουμαι", "ουμαστε",
    "ουν", "ουνται", "ουνταν", "ουσ", "ουσαν", "ουσατε", "υ", "υσ",
    "ω", "ων"), key=len, reverse=True))

_EL_STEP7 = ("εστερ", "εστατ", "οτερ", "οτατ", "υτερ", "υτατ",
             "ωτερ", "ωτατ")


def _el_strip(w, suffixes):
    """Strip the longest matching suffix; return (stem, suffix|None)."""
    for s in suffixes:
        if w.endswith(s):
            return w[:-len(s)], s
    return w, None


@lru_cache(maxsize=65536)
def greek_stem(word: str) -> str:
    """Greek stemmer — the full published Ntais step structure (see the
    section comment above).  Words shorter than 4 letters and the
    step-1 irregular table short-circuit; steps 2-5 strip with per-rule
    re-attachment exception lists; step 6's regular-inflection strip is
    gated on no earlier verb rule having fired (the algorithm's `test1`
    flag); step 7 removes comparative/superlative endings."""
    w = normalized = word.translate(_EL_PRELUDE)
    if len(w) < 4:
        return w
    test1 = True

    hit = _EL_STEP1.get(w)
    if hit is not None:
        return hit

    # step 2a: -αδεσ/-αδων (plural of -ασ nouns)
    stem, suf = _el_strip(w, ("αδεσ", "αδων"))
    if suf:
        w = stem if stem in _EL_EX_2A else stem + "αδ"
    # step 2b: -εδεσ/-εδων
    stem, suf = _el_strip(w, ("εδεσ", "εδων"))
    if suf:
        w = stem + "εδ" if stem.endswith(_EL_EX_2B_END) else stem
    # step 2c: -ουδεσ/-ουδων
    stem, suf = _el_strip(w, ("ουδεσ", "ουδων"))
    if suf:
        w = stem + "ουδ" if stem.endswith(_EL_EX_2C_END) else stem
    # step 2d: -εωσ/-εων (3rd-declension genitives)
    stem, suf = _el_strip(w, ("εωσ", "εων"))
    if suf:
        test1 = False
        w = stem + "ε" if stem in _EL_EX_2D else stem

    # step 3: -ια/-ιου/-ιων; re-attach ι after a vowel stem
    stem, suf = _el_strip(w, ("ιων", "ιου", "ια"))
    if suf:
        test1 = False
        w = stem + "ι" if (stem and stem[-1] in _EL_VOWELS) else stem

    # step 4: -ικα/-ικο/-ικου/-ικων; re-attach ικ after vowels/known stems
    stem, suf = _el_strip(w, ("ικων", "ικου", "ικα", "ικο"))
    if suf:
        test1 = False
        if (stem and stem[-1] in _EL_VOWELS) or stem in _EL_EX_4:
            w = stem + "ικ"
        else:
            w = stem

    # step 5a: -αμε family
    if w == "αγαμε":
        w = "αγαμ"
    stem, suf = _el_strip(w, ("ηθηκαμε", "ουσαμε", "ησαμε", "ηκαμε",
                              "αγαμε"))
    if suf:
        test1 = False
        w = stem
    stem, suf = _el_strip(w, ("αμε",))
    if suf:
        test1 = False
        w = stem + "αμ" if stem in _EL_EX_5A else stem

    # step 5b: -ανε family
    stem, suf = _el_strip(w, ("ηθηκανε", "ιουντανε", "ιοντανε",
                              "ουντανε", "ουσανε", "ιοτανε", "οντανε",
                              "ησανε", "αγανε", "ηκανε", "οτανε"))
    if suf:
        test1 = False
        w = stem + "αγαν" if stem in _EL_EX_5B1 else stem
    stem, suf = _el_strip(w, ("ανε",))
    if suf:
        test1 = False
        if (stem and stem[-1] in _EL_VOWELS2) or stem in _EL_EX_5B2:
            w = stem + "αν"
        else:
            w = stem

    # step 5c: -ετε family
    stem, suf = _el_strip(w, ("ησετε",))
    if suf:
        test1 = False
        w = stem
    stem, suf = _el_strip(w, ("ετε",))
    if suf:
        test1 = False
        if ((stem and stem[-1] in _EL_VOWELS2) or stem in _EL_EX_5C
                or stem.endswith(_EL_EX_5C_END)):
            w = stem + "ετ"
        else:
            w = stem

    # step 5d: -οντασ/-ωντασ (participles)
    stem, suf = _el_strip(w, ("οντασ", "ωντασ"))
    if suf:
        test1 = False
        if stem in _EL_EX_5D:
            w = stem + "οντ"
        elif stem.endswith("κρε"):
            w = stem + "ωντ"
        else:
            w = stem

    # step 5e: -ομαστε/-ιομαστε
    stem, suf = _el_strip(w, ("ιομαστε", "ομαστε"))
    if suf:
        test1 = False
        w = stem + "ομαστ" if stem in _EL_EX_5E else stem

    # step 5f: -εστε family
    stem, suf = _el_strip(w, ("ιεστε",))
    if suf:
        test1 = False
        w = stem + "ιεστ" if stem in _EL_EX_5F1 else stem
    stem, suf = _el_strip(w, ("εστε",))
    if suf:
        test1 = False
        w = stem + "εστ" if stem in _EL_EX_5F2 else stem

    # step 5g: -ηκα family (passive aorist)
    stem, suf = _el_strip(w, ("ηθηκεσ", "ηθηκα", "ηθηκε"))
    if suf:
        test1 = False
        w = stem
    stem, suf = _el_strip(w, ("ηκεσ", "ηκα", "ηκε"))
    if suf:
        test1 = False
        if stem in _EL_EX_5G1 or stem.endswith(_EL_EX_5G_END):
            w = stem + "ηκ"
        else:
            w = stem

    # step 5h: -ουσα family (imperfect / participle)
    stem, suf = _el_strip(w, ("ουσεσ", "ουσα", "ουσε"))
    if suf:
        test1 = False
        if stem in _EL_EX_5H or stem.endswith(_EL_EX_5H_END):
            w = stem + "ουσ"
        else:
            w = stem

    # step 5i: -αγα family
    stem, suf = _el_strip(w, ("αγεσ", "αγα", "αγε"))
    if suf:
        test1 = False
        if stem.endswith("κολλ"):
            w = stem + "αγ"
        elif stem in _EL_EX_5I and stem not in _EL_EX_5I_NOT:
            w = stem + "αγ"
        else:
            w = stem

    # step 5j: -ησε/-ησου/-ησα
    stem, suf = _el_strip(w, ("ησου", "ησε", "ησα"))
    if suf:
        test1 = False
        w = stem + "ησ" if stem in _EL_EX_5J else stem

    # step 5k: -ηστε
    stem, suf = _el_strip(w, ("ηστε",))
    if suf:
        test1 = False
        w = stem + "ηστ" if stem in _EL_EX_5K else stem

    # step 5l: -ουνε family
    stem, suf = _el_strip(w, ("ηθουνε", "ησουνε", "ουνε"))
    if suf:
        test1 = False
        if suf == "ουνε" and stem in _EL_EX_5L:
            w = stem + "ουν"
        else:
            w = stem

    # step 5m: -ουμε family
    stem, suf = _el_strip(w, ("ηθουμε", "ησουμε", "ουμε"))
    if suf:
        test1 = False
        if suf == "ουμε" and stem in _EL_EX_5M:
            w = stem + "ουμ"
        else:
            w = stem

    # step 6 part 1: -ματα/-ματων/-ματοσ → -μα (neuter -μα nouns)
    stem, suf = _el_strip(w, ("ματων", "ματοσ", "ματα"))
    if suf:
        w = stem + "μα"
    # step 6 part 2: regular inflectional endings, only if no verb rule
    if test1:
        stem, suf = _el_strip(w, _EL_STEP6)
        if suf:
            w = stem

    # step 7: comparatives / superlatives
    stem, suf = _el_strip(w, _EL_STEP7)
    if suf:
        w = stem
    # minimum-stem guard: a word that is all suffix (οταν, ειτε, ησαν,
    # ομαι, ουμε) keeps its normalized form instead of stemming to ''
    return w or normalized


# ---------------------------------------------------------------------------
# Arabic (Light10 — Larkey, Ballesteros & Connell 2002, the standard
# published light stemmer; the reference offers Snowball Arabic through
# rust-stemmers, same normalization + affix-stripping shape)
# ---------------------------------------------------------------------------

_AR_DIACRITICS = dict.fromkeys(map(ord, "ًٌٍَ"
                                        "ُِّْ"
                                        "ـ"))
_AR_PREFIXES = ("ال",            # ال
                "وال",      # وال
                "بال",      # بال
                "كال",      # كال
                "فال",      # فال
                "لل")            # لل
_AR_SUFFIXES = ("ها", "ان", "ات",
                "ون", "ين", "يه",
                "ية", "ه", "ة", "ي")


@lru_cache(maxsize=65536)
def arabic_stem(word: str) -> str:
    w = word.translate(_AR_DIACRITICS)
    # hamza/alef and taa-marbuta normalization
    for src in ("آ", "أ", "إ"):
        w = w.replace(src, "ا")
    if w.endswith("ى"):
        w = w[:-1] + "ي"
    # waw conjunction: strip a leading و if >=3 chars remain
    if w.startswith("و") and len(w) >= 4:
        w = w[1:]
    for p in sorted(_AR_PREFIXES, key=len, reverse=True):
        if w.startswith(p) and len(w) - len(p) >= 2:
            w = w[len(p):]
            break
    for s in _AR_SUFFIXES:  # Light10: each checked in order
        if w.endswith(s) and len(w) - len(s) >= 2:
            w = w[:-len(s)]
    return w


# ---------------------------------------------------------------------------
# Tamil (light suffix stripper after the published Tamil stemming rules
# — case/plural/clitic endings, longest first, minimum-stem guard)
# ---------------------------------------------------------------------------

_TA_SUFFIXES = (
    "ிலிருந்து",  # -இலிருந்து
    "களுக்கு",              # -களுக்கு
    "களில்",                          # -களில்
    "களின்",                          # -களின்
    "களால்",                          # -களால்
    "களை",                                      # -களை
    "ுடன்",                                # -உடன்
    "கள்",                                      # -கள்
    "ுக்கு",                          # -உக்கு
    "ின்",                                      # -இன்
    "ில்",                                      # -இல்
    "ால்",                                      # -ஆல்
    "ோடு",                                      # -ஓடு
    "ை",                                                  # -ஐ
)


@lru_cache(maxsize=65536)
def tamil_stem(word: str) -> str:
    w = word
    for _ in range(2):  # plural + case can stack (-களுக்கு etc.)
        for s in _TA_SUFFIXES:
            if w.endswith(s) and len(w) - len(s) >= 2:
                w = w[:-len(s)]
                break
        else:
            break
    if w != word and w.endswith("ங்"):
        # undo the ம்→ங் nasal assimilation before -கள் (மரங்கள் → மரம்)
        w = w[:-len("ங்")] + "ம்"
    return w


LANGUAGE_STEMMERS = {
    "german": german_stem,
    "de": german_stem,
    "french": french_stem,
    "fr": french_stem,
    "spanish": spanish_stem,
    "es": spanish_stem,
    "russian": russian_stem,
    "ru": russian_stem,
    "swedish": swedish_stem,
    "sv": swedish_stem,
    "norwegian": norwegian_stem,
    "no": norwegian_stem,
    "danish": danish_stem,
    "da": danish_stem,
    "italian": italian_stem,
    "it": italian_stem,
    "portuguese": portuguese_stem,
    "pt": portuguese_stem,
    "dutch": dutch_stem,
    "nl": dutch_stem,
    "romanian": romanian_stem,
    "ro": romanian_stem,
    "finnish": finnish_stem,
    "fi": finnish_stem,
    "hungarian": hungarian_stem,
    "hu": hungarian_stem,
    "turkish": turkish_stem,
    "tr": turkish_stem,
    "greek": greek_stem,
    "el": greek_stem,
    "arabic": arabic_stem,
    "ar": arabic_stem,
    "tamil": tamil_stem,
    "ta": tamil_stem,
}
