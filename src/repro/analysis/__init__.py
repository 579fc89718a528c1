"""Experiment drivers and reporting (Section 6 reproduction)."""

from .experiments import (CaseStudyConfig, CaseStudyResult, ClusterRow,
                          SampledQuery, run_case_study)
from .categorize import (IntentKind, QueryCategory, SkyAreaKind,
                         categorize, categorize_sql)
from .drift import (DriftReport, Trend, TrendKind, WindowInterest,
                    mine_drift, split_by_time)
from .sessions import (DEFAULT_IDLE_GAP, Session, SessionStatistics,
                       split_sessions)
from .figures import FigureData, Rect, figure1a, figure1b, figure1c
from .report import format_summary, format_table1
from .users import (QueryRole, UserAnalytics, UserProfile, UserQuery,
                    analyze_users, classify_test_queries,
                    format_user_report)

__all__ = [
    "CaseStudyConfig", "CaseStudyResult", "ClusterRow", "SampledQuery",
    "run_case_study",
    "FigureData", "Rect", "figure1a", "figure1b", "figure1c",
    "format_summary", "format_table1",
    "QueryRole", "UserAnalytics", "UserProfile", "UserQuery",
    "analyze_users", "classify_test_queries", "format_user_report",
    "IntentKind", "QueryCategory", "SkyAreaKind", "categorize",
    "categorize_sql",
    "DEFAULT_IDLE_GAP", "Session", "SessionStatistics", "split_sessions",
    "DriftReport", "Trend", "TrendKind", "WindowInterest", "mine_drift",
    "split_by_time",
]
