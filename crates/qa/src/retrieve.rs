//! BM25-lite document retrieval (the Google/Wikipedia search substitute).
//!
//! Step 1 of Appendix B retrieves relevant documents for the question's
//! entities. We index the generated corpora with BM25 (k1 = 1.2, b =
//! 0.75) over lowercased word tokens, with titles up-weighted.
//!
//! A search scores into a dense array with one slot per document and
//! offers the matched documents to a bounded top-k in ascending document
//! order, so equal scores rank the lower document id first. Every
//! document receives its term contributions in query-token order; the
//! scores, and therefore the ranking, are a pure function of the query.

use qkb_util::{FxHashMap, Interner, Symbol, TopK};

/// A BM25 index over a document collection.
pub struct Bm25Index {
    vocab: Interner,
    postings: FxHashMap<Symbol, Vec<(u32, f32)>>, // term -> (doc, tf)
    doc_len: Vec<f32>,
    avg_len: f32,
    n_docs: usize,
}

const K1: f32 = 1.2;
const B: f32 = 0.75;
/// Title tokens count this many times.
const TITLE_BOOST: u32 = 3;

fn tokenize(text: &str) -> impl Iterator<Item = String> + '_ {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(|w| w.to_lowercase())
}

impl Bm25Index {
    /// Builds the index from `(title, body)` documents.
    pub fn build<'a, I: IntoIterator<Item = (&'a str, &'a str)>>(docs: I) -> Self {
        let mut vocab = Interner::new();
        let mut postings: FxHashMap<Symbol, Vec<(u32, f32)>> = FxHashMap::default();
        let mut doc_len = Vec::new();
        for (d, (title, body)) in docs.into_iter().enumerate() {
            let mut counts: FxHashMap<Symbol, u32> = FxHashMap::default();
            let mut len = 0u32;
            for t in tokenize(title) {
                let sym = vocab.intern(&t);
                *counts.entry(sym).or_insert(0) += TITLE_BOOST;
                len += TITLE_BOOST;
            }
            for t in tokenize(body) {
                let sym = vocab.intern(&t);
                *counts.entry(sym).or_insert(0) += 1;
                len += 1;
            }
            for (sym, tf) in counts {
                postings.entry(sym).or_default().push((d as u32, tf as f32));
            }
            doc_len.push(len as f32);
        }
        let n_docs = doc_len.len();
        let avg_len = if n_docs == 0 {
            1.0
        } else {
            doc_len.iter().sum::<f32>() / n_docs as f32
        };
        Self {
            vocab,
            postings,
            doc_len,
            avg_len,
            n_docs,
        }
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.n_docs
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.n_docs == 0
    }

    /// Top-k documents for a free-text query; returns `(doc index, score)`
    /// by descending score, ties by ascending doc index.
    pub fn search(&self, query: &str, k: usize) -> Vec<(usize, f32)> {
        let mut scores = vec![0.0f32; self.n_docs];
        for term in tokenize(query) {
            let Some(sym) = self.vocab.get(&term) else {
                continue;
            };
            let Some(plist) = self.postings.get(&sym) else {
                continue;
            };
            let df = plist.len() as f32;
            let idf = ((self.n_docs as f32 - df + 0.5) / (df + 0.5) + 1.0).ln();
            for &(d, tf) in plist {
                let dl = self.doc_len[d as usize];
                let denom = tf + K1 * (1.0 - B + B * dl / self.avg_len);
                scores[d as usize] += idf * tf * (K1 + 1.0) / denom;
            }
        }
        // idf > 0 and tf >= 1, so exactly the matched documents score
        // above zero.
        let mut top = TopK::new(k);
        for (d, &s) in scores.iter().enumerate() {
            if s > 0.0 {
                top.push(s as f64, d);
            }
        }
        top.into_sorted()
            .into_iter()
            .map(|(s, d)| (d, s as f32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qkb_corpus::questions::trends_test;
    use qkb_corpus::world::{World, WorldConfig};
    use std::sync::OnceLock;

    /// The hash-map accumulator `search` replaced: scores in a map keyed
    /// by document, matched documents collected and sorted by id before
    /// the top-k. The reference `search` must equal bit for bit.
    fn search_reference(idx: &Bm25Index, query: &str, k: usize) -> Vec<(usize, f32)> {
        let mut scores: FxHashMap<u32, f32> = FxHashMap::default();
        for term in tokenize(query) {
            let Some(sym) = idx.vocab.get(&term) else {
                continue;
            };
            let Some(plist) = idx.postings.get(&sym) else {
                continue;
            };
            let df = plist.len() as f32;
            let idf = ((idx.n_docs as f32 - df + 0.5) / (df + 0.5) + 1.0).ln();
            for &(d, tf) in plist {
                let dl = idx.doc_len[d as usize];
                let denom = tf + K1 * (1.0 - B + B * dl / idx.avg_len);
                *scores.entry(d).or_insert(0.0) += idf * tf * (K1 + 1.0) / denom;
            }
        }
        let mut top = TopK::new(k);
        let mut entries: Vec<(u32, f32)> = scores.into_iter().collect();
        entries.sort_unstable_by_key(|&(d, _)| d);
        for (d, s) in entries {
            top.push(s as f64, d as usize);
        }
        top.into_sorted()
            .into_iter()
            .map(|(s, d)| (d, s as f32))
            .collect()
    }

    /// A generated wiki + news corpus, its sorted vocabulary, and trends
    /// questions over the same world.
    struct Fixture {
        index: Bm25Index,
        vocab: Vec<String>,
        questions: Vec<String>,
    }

    fn fixture() -> &'static Fixture {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let world = World::generate(WorldConfig::default());
            let mut docs = qkb_corpus::docgen::wiki_corpus(&world, 40, 3).docs;
            docs.extend(qkb_corpus::docgen::news_corpus(&world, 30, 4).docs);
            let index = Bm25Index::build(docs.iter().map(|d| (d.title.as_str(), d.text.as_str())));
            let mut vocab: Vec<String> = docs
                .iter()
                .flat_map(|d| tokenize(&d.title).chain(tokenize(&d.text)))
                .collect();
            vocab.sort_unstable();
            vocab.dedup();
            let questions = trends_test(&world, 24, 17)
                .into_iter()
                .map(|q| q.text)
                .collect();
            Fixture {
                index,
                vocab,
                questions,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Dense-array scoring equals the hash-map reference: the same
        /// documents in the same order, every score bit-identical. Queries
        /// mix corpus tokens (any case), unknown tokens, runs of one
        /// repeated token and a doubled trends question, as
        /// `QaSystem::retrieve_docs` sends it.
        #[test]
        fn dense_search_matches_hash_map_reference(
            picks in proptest::collection::vec((0u8..4, 0usize..1 << 20), 0..12),
            question in 0usize..24,
            with_question in any::<bool>(),
            k_pick in 0usize..4,
        ) {
            let fx = fixture();
            let mut words: Vec<String> = Vec::new();
            for &(shape, n) in &picks {
                let token = &fx.vocab[n % fx.vocab.len()];
                match shape {
                    0 => words.push(token.clone()),
                    1 => words.push(token.to_uppercase()),
                    2 => words.push(format!("zq{n}unknown")),
                    _ => words.extend(std::iter::repeat_n(token.clone(), 1 + n % 4)),
                }
            }
            if with_question {
                let q = &fx.questions[question % fx.questions.len()];
                words.push(format!("{q} {q}"));
            }
            let query = words.join(" ");
            let k = [0, 1, 4, 10][k_pick];
            let got = fx.index.search(&query, k);
            let want = search_reference(&fx.index, &query, k);
            let bits = |hits: &[(usize, f32)]| -> Vec<(usize, u32)> {
                hits.iter().map(|&(d, s)| (d, s.to_bits())).collect()
            };
            prop_assert_eq!(bits(&got), bits(&want), "query {:?}, k {}", query, k);
        }
    }

    fn index() -> Bm25Index {
        Bm25Index::build([
            (
                "Bob Dylan",
                "Bob Dylan released the album and won the prize.",
            ),
            (
                "Liverpool F.C.",
                "The club won the league. The striker scored.",
            ),
            ("Ashford", "The city lies in the north. Its port is busy."),
        ])
    }

    #[test]
    fn retrieves_relevant_doc_first() {
        let idx = index();
        let hits = idx.search("Who won the prize Dylan", 2);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].0, 0);
    }

    #[test]
    fn title_boost_matters() {
        let idx = index();
        let hits = idx.search("Liverpool", 3);
        assert_eq!(hits[0].0, 1);
    }

    #[test]
    fn unknown_terms_yield_empty() {
        let idx = index();
        assert!(idx.search("zzz qqq", 5).is_empty());
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn k_limits_results() {
        let idx = index();
        let hits = idx.search("the", 1);
        assert!(hits.len() <= 1);
    }
}
