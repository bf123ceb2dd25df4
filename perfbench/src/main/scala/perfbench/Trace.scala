package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

import scala.collection.mutable

/** One call into a layer. Times are on the JVM's monotonic clock; `parent`
  * is the id of the span that caused it (0 for none). */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long,
                      attrs: Map[String, Double]) {
  def ms: Double = (endNs - startNs) / 1e6
  def attr(k: String): Double = attrs.getOrElse(k, 0.0)
}

/** Spans kept in memory for the whole run; the per-layer metrics are
  * computed from them when the run ends. */
final class Tracer {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private val epochOffsetNs = System.currentTimeMillis() * 1000000L - System.nanoTime()

  def record(name: String, parent: Int, startNs: Long, endNs: Long,
             attrs: Map[String, Double] = Map.empty): Span = {
    val s = Span(spans.size + 1, parent, name, startNs, endNs, attrs)
    spans += s
    s
  }

  /** Times `body` as a span; returns its result and the span. */
  def span[T](name: String)(body: => T): (T, Span) = {
    val t0 = System.nanoTime()
    val r = body
    (r, record(name, 0, t0, System.nanoTime()))
  }

  def fromEpochMs(ms: Long): Long = ms * 1000000L - epochOffsetNs
  def named(name: String): Seq[Span] = spans.filter(_.name == name).toSeq
  def childrenOf(id: Int): Seq[Span] = spans.filter(_.parent == id).toSeq
}

/** Metrics of one finished Spark task. */
final case class TaskRec(stageId: Int, shuffleMap: Boolean, runMs: Long, cpuNs: Long, gcMs: Long,
                         writeBytes: Long, writeRecords: Long, writeNs: Long, fetchWaitMs: Long)

/** Collects task and stage metrics from Spark's listener bus between two
  * marker jobs. Listener events arrive asynchronously but in order, so the
  * tasks delivered after the begin marker's end and before the end marker's
  * start are those of the operation in between. */
final class StageListener(sc: SparkContext) extends SparkListener {
  private val tasks = mutable.ArrayBuffer.empty[TaskRec]
  private val stages = mutable.ArrayBuffer.empty[StageInfo]
  private val markerJobs = mutable.HashMap.empty[Int, String]
  private val done = mutable.HashSet.empty[String]
  private var recording = false
  private var seq = 0

  private def group(e: SparkListenerJobStart): Option[String] =
    Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    group(e).filter(_.startsWith(StageListener.Marker)).foreach { g =>
      markerJobs(e.jobId) = g
      if (g.endsWith("-end")) recording = false
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    markerJobs.remove(e.jobId).foreach { g =>
      if (g.endsWith("-begin")) recording = true
      done += g
      notifyAll()
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (recording && m != null)
      tasks += TaskRec(e.stageId, e.taskType == "ShuffleMapTask", m.executorRunTime,
        m.executorCpuTime, m.jvmGCTime, m.shuffleWriteMetrics.bytesWritten,
        m.shuffleWriteMetrics.recordsWritten, m.shuffleWriteMetrics.writeTime,
        m.shuffleReadMetrics.fetchWaitTime)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    if (recording) stages += e.stageInfo
  }

  /** Runs `body` between the two markers with this listener attached, and
    * returns its result with the tasks and stages it ran. */
  def capture[T](body: => T): (T, Seq[TaskRec], Seq[StageInfo]) = {
    sc.addSparkListener(this)
    try {
      synchronized { seq += 1; tasks.clear(); stages.clear() }
      mark(s"${StageListener.Marker}-$seq-begin")
      val r = body
      mark(s"${StageListener.Marker}-$seq-end")
      synchronized { (r, tasks.toVector, stages.toVector) }
    } finally sc.removeSparkListener(this)
  }

  private def mark(label: String): Unit = {
    sc.setJobGroup(label, label)
    try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
    val deadline = System.currentTimeMillis() + 60000L
    synchronized {
      while (!done(label)) {
        val left = deadline - System.currentTimeMillis()
        require(left > 0, s"listener never saw marker $label")
        wait(left)
      }
    }
  }
}

object StageListener {
  val Marker = "perfbench-marker"

  /** One child span per stage the operation ran, carrying its tasks' summed
    * metrics. */
  def recordStages(tracer: Tracer, parent: Int, tasks: Seq[TaskRec], stages: Seq[StageInfo]): Unit =
    for (st <- stages; start <- st.submissionTime; end <- st.completionTime) {
      val ts = tasks.filter(_.stageId == st.stageId)
      val runs = ts.map(_.runMs.toDouble).sorted
      tracer.record("spark.stage", parent, tracer.fromEpochMs(start), tracer.fromEpochMs(end), Map(
        "shuffle_map" -> (if (ts.exists(_.shuffleMap)) 1.0 else 0.0),
        "tasks" -> ts.size.toDouble,
        "task_ms" -> runs.sum,
        "max_task_ms" -> runs.lastOption.getOrElse(0.0),
        "median_task_ms" -> Stats.median(runs),
        "cpu_ns" -> ts.map(_.cpuNs.toDouble).sum,
        "gc_ms" -> ts.map(_.gcMs.toDouble).sum,
        "write_bytes" -> ts.map(_.writeBytes.toDouble).sum,
        "write_records" -> ts.map(_.writeRecords.toDouble).sum,
        "write_ns" -> ts.map(_.writeNs.toDouble).sum,
        "fetch_wait_ms" -> ts.map(_.fetchWaitMs.toDouble).sum))
    }
}

object Stats {
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val n = s.size
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }
}
