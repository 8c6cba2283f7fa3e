//! Synthetic prefill-only workloads (Table 1 of the paper).
//!
//! The paper evaluates PrefillOnly on two simulated datasets, because "existing LLM
//! datasets mainly focus on evaluating the LLM accuracy instead of the performance of
//! the LLM engine" (§7.1):
//!
//! * **Post recommendation** — 20 users, each with an 11k–17k-token profile (browsing
//!   history), receiving 50 candidate posts of ~150 tokens each.  All 50 requests for a
//!   user share the profile as a common prefix, which is what makes prefix caching and
//!   JCT calibration matter.
//! * **Credit verification** — 60 users, each with a 40k–60k-token credit history and a
//!   single request, which is what makes the maximum input length matter.
//!
//! Token *content* is synthetic (deterministic ids derived from the user / document
//! identity) but token *structure* — which requests share which prefixes, and how long
//! every segment is — follows the paper exactly.  Request arrivals follow a Poisson
//! process whose rate is swept to produce the QPS axes of Figures 6, 7 and 9.

mod arrival;
mod dataset;
mod membership;
mod spec;
mod stream;

pub use arrival::{
    assign_poisson_arrivals, assign_poisson_arrivals_with, ArrivalGranularity, ArrivalPattern,
};
pub use dataset::{Dataset, DatasetSummary, RequestTemplate};
pub use membership::{InstanceRole, MembershipChange, MembershipEvent, MembershipSchedule};
pub use spec::{
    ConversationSpec, CreditVerificationSpec, PostRecommendationSpec, SharedPrefixFleetSpec,
    WorkloadKind,
};
pub use stream::{
    collect_stream, conversation_trace, ArrivalStream, ConversationStream, PoissonArrivalStream,
    SharedPrefixFleetStream, SliceArrivalStream, SortedTrace, StreamedArrival,
};
